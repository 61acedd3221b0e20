"""Vertex-cut partitioners.

Vertex-cut allows both the incoming and the outgoing edges of a vertex
to be split across machines (PowerGraph, D-Galois/Gluon).  Two variants:

* :class:`HashVertexCut` — each edge hashed independently; simple and
  balanced but maximizes replication.
* :class:`CartesianVertexCut` — machines arranged in an ``r x c`` grid;
  edge ``(u, v)`` goes to machine ``(row_block(u), col_block(v))``.
  This is the Cartesian Vertex-Cut that D-Galois reports "performs well
  at scale" and that our D-Galois baseline engine uses.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.partition.base import Partition, Partitioner, edge_endpoints
from repro.partition.chunking import balanced_chunks, chunk_of

__all__ = ["HashVertexCut", "CartesianVertexCut", "grid_shape"]


def grid_shape(num_machines: int) -> tuple[int, int]:
    """Most-square ``(rows, cols)`` factorization of ``num_machines``."""
    r = int(np.sqrt(num_machines))
    while r > 1 and num_machines % r != 0:
        r -= 1
    return r, num_machines // r


def _mix(src: np.ndarray, dst: np.ndarray, num_machines: int) -> np.ndarray:
    """Deterministic per-edge hash onto machines (splitmix-style)."""
    x = (src.astype(np.uint64) << np.uint64(32)) ^ dst.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(num_machines)).astype(np.int64)


class HashVertexCut(Partitioner):
    """Independent per-edge hash placement."""

    name = "hash-vertex-cut"

    def partition(self, graph: CSRGraph, num_machines: int) -> Partition:
        self._check_machines(num_machines)
        boundaries = balanced_chunks(
            graph.in_degrees() + graph.out_degrees(), num_machines
        )
        master_of = chunk_of(boundaries, np.arange(graph.num_vertices))
        (in_src, in_dst), (out_src, out_dst) = edge_endpoints(graph)
        return Partition(
            graph,
            master_of,
            in_edge_owner=_mix(in_src, in_dst, num_machines),
            out_edge_owner=_mix(out_src, out_dst, num_machines),
            kind=self.name,
            num_machines=num_machines,
        )


class CartesianVertexCut(Partitioner):
    """2-D (block-cyclic-free) cartesian vertex cut on an r x c grid."""

    name = "cartesian-vertex-cut"

    def __init__(self, rows: int | None = None, cols: int | None = None) -> None:
        if (rows is None) != (cols is None):
            raise PartitionError("specify both rows and cols or neither")
        self.rows = rows
        self.cols = cols

    def partition(self, graph: CSRGraph, num_machines: int) -> Partition:
        self._check_machines(num_machines)
        if self.rows is None:
            rows, cols = grid_shape(num_machines)
        else:
            rows, cols = self.rows, self.cols
            if rows * cols != num_machines:
                raise PartitionError("rows * cols must equal num_machines")

        degree = graph.in_degrees() + graph.out_degrees()
        row_bounds = balanced_chunks(degree, rows)
        col_bounds = balanced_chunks(degree, cols)
        vertex_ids = np.arange(graph.num_vertices)
        row_block = chunk_of(row_bounds, vertex_ids)
        col_block = chunk_of(col_bounds, vertex_ids)

        # Master assignment: balanced 1-D chunking across all machines.
        master_bounds = balanced_chunks(degree, num_machines)
        master_of = chunk_of(master_bounds, vertex_ids)

        def owner(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
            if src.size == 0:
                return src
            return row_block[src] * cols + col_block[dst]

        (in_src, in_dst), (out_src, out_dst) = edge_endpoints(graph)
        return Partition(
            graph,
            master_of,
            in_edge_owner=owner(in_src, in_dst),
            out_edge_owner=owner(out_src, out_dst),
            kind=self.name,
            num_machines=num_machines,
        )

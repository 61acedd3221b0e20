"""Incremental partition refresh for mutated graphs.

When a :class:`~repro.graph.dynamic.DynamicGraph` applies a batch, the
session does not re-partition from scratch.  The master assignment is
*frozen* at the partition's original chunking (re-sharding on every
batch would defeat the warm shared-memory topology), and only the
machines that own a mutated edge patch their local adjacency — the
same row patch (:func:`~repro.graph.csr.patch_rows`) the snapshot
took, restricted to the batch edges the machine owns.  Every other
machine keeps its exact :class:`~repro.partition.base.LocalAdjacency`
objects, and its rows of the dependency bitmaps (``_has_in`` /
``_has_out``, the structures that gate mirror placement and dependency
sync) are carried over untouched.

That selective invalidation is the SympleGraph twist: under the
circulant schedule, machine ``m`` processes destination partition
``j = (m + s + 1) mod p`` at step ``s``, so a mutated edge ``(u, v)``
owned by machine ``m`` with ``master(v) = j`` dirties exactly the
schedule cell ``(m, (j - m - 1) mod p)``.  :func:`circulant_cells`
enumerates the dirty cells and :class:`RefreshStats` reports how much
of the ``p x p`` schedule survived.

Only the edge-cut families refresh incrementally (ownership is a pure
function of the frozen masters); other strategies raise
:class:`~repro.errors.PartitionError` and the caller rebuilds from
scratch on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph, patch_rows
from repro.graph.dynamic import MutationBatch
from repro.partition.base import EDGE_CUT_KINDS, LocalAdjacency, Partition

__all__ = [
    "RefreshStats",
    "circulant_cells",
    "refresh_partition",
    "partition_with_masters",
]

@dataclass
class RefreshStats:
    """What one incremental partition refresh invalidated."""

    kind: str
    num_machines: int
    #: machines whose local adjacency was patched (or rebuilt)
    touched_machines: List[int]
    #: machines whose LocalAdjacency objects were reused as-is
    reused_machines: int
    #: dirty circulant cells ``(machine, step)``
    cells: List[Tuple[int, int]]
    #: added isolated vertices (column extension only)
    added_vertices: int

    @property
    def schedule_cells(self) -> int:
        return len(self.cells)

    @property
    def total_cells(self) -> int:
        return self.num_machines * self.num_machines


def circulant_cells(
    owners: np.ndarray, dst_masters: np.ndarray, num_machines: int
) -> List[Tuple[int, int]]:
    """Dirty ``(machine, step)`` schedule cells for mutated edges.

    ``owners[i]`` is the machine owning mutated edge i; ``dst_masters[i]``
    is the master machine of its destination.  Machine ``m`` reaches
    destination partition ``j`` at step ``s = (j - m - 1) mod p``
    (inverse of ``circulant_partition``).
    """
    if owners.size == 0:
        return []
    steps = (dst_masters - owners - 1) % num_machines
    cells = np.unique(
        np.stack([owners, steps], axis=1), axis=0
    )
    return [(int(m), int(s)) for m, s in cells]


def partition_with_masters(
    graph: CSRGraph,
    master_of: np.ndarray,
    kind: str,
    num_machines: int,
) -> Partition:
    """From-scratch partition under a *given* master assignment.

    The reference implementation an incremental refresh must match
    bit-for-bit (used by the metamorphic tests, and by callers that
    want to re-partition a mutated graph while keeping placement).
    """
    if kind not in EDGE_CUT_KINDS:
        raise PartitionError(
            f"partition kind {kind!r} has no master-preserving rebuild; "
            f"supported: {EDGE_CUT_KINDS}"
        )
    return Partition(graph, master_of, None, None, kind, num_machines)


def _extend_adjacency(adj: LocalAdjacency, added: int) -> LocalAdjacency:
    """Widen an untouched machine's CSR to cover appended vertices."""
    if added == 0:
        return adj
    indptr = np.concatenate([
        adj.indptr, np.full(added, adj.indptr[-1], dtype=np.int64),
    ])
    return LocalAdjacency(indptr, adj.indices, adj.weights)


def _patch_machines(
    old: Partition,
    graph: CSRGraph,
    master_of: np.ndarray,
    batch: MutationBatch,
    ins_owner: np.ndarray,
    del_owner: np.ndarray,
    touched: np.ndarray,
) -> Partition:
    """``old`` with each touched machine's rows patched by the batch
    edges it owns; the rest kept by identity."""
    n, p, added = graph.num_vertices, old.num_machines, batch.add_vertices
    ins_src, ins_dst, ins_w = (
        batch.insert_src, batch.insert_dst, batch.insert_weights
    )
    del_src, del_dst = batch.delete_src, batch.delete_dst
    part = Partition.__new__(Partition)
    part.graph = graph
    part.master_of = master_of
    part._in_edge_owner = part._out_edge_owner = None
    part.kind = old.kind
    part.num_machines = p
    part._local_in = []
    part._local_out = []
    for m in range(p):
        local_in, local_out = old._local_in[m], old._local_out[m]
        if m in touched:
            i = ins_owner == m
            d = del_owner == m
            w = None if ins_w is None else ins_w[i]
            local_in = LocalAdjacency(*patch_rows(
                local_in.indptr, local_in.indices, local_in.weights, n,
                (del_dst[d], del_src[d]), (ins_dst[i], ins_src[i], w),
            ))
            local_out = LocalAdjacency(*patch_rows(
                local_out.indptr, local_out.indices, local_out.weights, n,
                (del_src[d], del_dst[d]), (ins_src[i], ins_dst[i], w),
            ))
        else:
            local_in = _extend_adjacency(local_in, added)
            local_out = _extend_adjacency(local_out, added)
        part._local_in.append(local_in)
        part._local_out.append(local_out)
    # dependency bitmaps: carry every row over, recompute only the rows
    # of touched machines (column-extended for appended vertices)
    if added:
        pad = np.zeros((p, added), dtype=bool)
        part._has_in = np.concatenate([old._has_in, pad], axis=1)
        part._has_out = np.concatenate([old._has_out, pad], axis=1)
    else:
        part._has_in = old._has_in.copy()
        part._has_out = old._has_out.copy()
    for m in touched:
        part._has_in[m] = part._local_in[m].degrees() > 0
        part._has_out[m] = part._local_out[m].degrees() > 0
    part._index_masters()
    return part


def refresh_partition(
    old: Partition, graph: CSRGraph, batch: MutationBatch
) -> Tuple[Partition, RefreshStats]:
    """Refresh ``old`` to cover ``graph`` after ``batch`` was applied.

    ``graph`` must be the post-batch snapshot of the graph ``old`` was
    built from.  Masters are frozen (appended vertices land on the last
    machine, matching ``chunk_of`` for out-of-range ids); only machines
    owning a mutated edge patch their local adjacency and recompute
    their dependency bitmap rows.  The result is bit-identical to
    :func:`partition_with_masters` on the same inputs.

    Patching needs ``graph``'s rows to be ``old.graph``'s plus the
    batch, which :meth:`~repro.graph.csr.CSRGraph.patch` records
    (``graph.patched_from``).  Any other graph — the first snapshot of
    a base built from an unsorted edge list is a full build — has every
    machine rebuilt.
    """
    if old.kind not in EDGE_CUT_KINDS:
        raise PartitionError(
            f"partition kind {old.kind!r} does not support incremental "
            f"refresh; supported: {EDGE_CUT_KINDS}"
        )
    added = graph.num_vertices - old.graph.num_vertices
    if added != batch.add_vertices or added < 0:
        raise PartitionError(
            f"refresh expects the post-batch snapshot: vertex delta "
            f"{added} != batch.add_vertices {batch.add_vertices}"
        )
    p = old.num_machines
    master_of = old.master_of
    if added:
        master_of = np.concatenate([
            master_of, np.full(added, p - 1, dtype=np.int64),
        ])

    # which machine owns each mutated edge, under this strategy's rule
    if old.kind == "outgoing-edge-cut":
        ins_owner = master_of[batch.insert_src]
        del_owner = master_of[batch.delete_src]
    else:
        ins_owner = master_of[batch.insert_dst]
        del_owner = master_of[batch.delete_dst]
    owners = np.concatenate([ins_owner, del_owner])
    dst_masters = master_of[
        np.concatenate([batch.insert_dst, batch.delete_dst])
    ]
    cells = circulant_cells(owners, dst_masters, p)
    if graph.patched_from is old.graph:
        touched = np.unique(owners)
        part = _patch_machines(
            old, graph, master_of, batch, ins_owner, del_owner, touched
        )
    else:
        touched = np.arange(p)
        part = partition_with_masters(graph, master_of, old.kind, p)

    stats = RefreshStats(
        kind=old.kind,
        num_machines=p,
        touched_machines=[int(m) for m in touched],
        reused_machines=p - touched.size,
        cells=cells,
        added_vertices=added,
    )
    return part, stats

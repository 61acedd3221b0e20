"""Partition model: master/mirror assignment and per-machine adjacency.

A :class:`Partition` captures where every vertex's *master* copy lives
and where every *edge* is stored.  Following the paper (Section 2.2):

* the machine owning an edge executes the signal UDF for that edge;
* a machine holding at least one in-edge of ``v`` without owning ``v``
  keeps an (in-)*mirror* of ``v`` — it aggregates locally and sends one
  update message to the master per iteration;
* similarly for out-mirrors in push mode.

Edge ownership is direction-agnostic data: we record, for every edge,
the storage machine, in both the in-CSR and out-CSR edge orderings, and
pre-build per-machine local adjacency (a masked CSR over global vertex
ids) so engines can iterate ``local_in_neighbors(m, v)`` cheaply.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph

__all__ = ["LocalAdjacency", "Partition", "Partitioner"]


class LocalAdjacency:
    """CSR over global vertex ids restricted to one machine's edges."""

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._degrees: Optional[np.ndarray] = None

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        # Engines call this once per (phase, machine); the CSR is
        # immutable after construction, so compute the diff once.
        if self._degrees is None:
            self._degrees = np.diff(self.indptr)
        return self._degrees

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)


def _restrict_csr(
    num_vertices: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: Optional[np.ndarray],
    owner: np.ndarray,
    machine: int,
) -> LocalAdjacency:
    """Build the per-machine view of one CSR direction."""
    mask = owner == machine
    keys = np.repeat(np.arange(num_vertices), np.diff(indptr))
    local_keys = keys[mask]
    local_indices = indices[mask]
    local_weights = weights[mask] if weights is not None else None
    counts = np.bincount(local_keys, minlength=num_vertices)
    local_indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=local_indptr[1:])
    return LocalAdjacency(local_indptr, local_indices, local_weights)


def edge_cut_owners(
    graph: CSRGraph, master_of: np.ndarray, kind: str
) -> Tuple[np.ndarray, np.ndarray]:
    """(in_edge_owner, out_edge_owner) of an edge cut: an edge lives on
    the master of its source (outgoing) or destination (incoming)."""
    if kind == "outgoing-edge-cut":
        in_key = graph.in_indices  # src, in dst-sorted order
        out_key = np.repeat(
            np.arange(graph.num_vertices), graph.out_degrees()
        )
    else:  # incoming-edge-cut
        in_key = np.repeat(
            np.arange(graph.num_vertices), graph.in_degrees()
        )
        out_key = graph.out_indices  # dst, in src-sorted order
    empty = np.empty(0, dtype=np.int64)
    in_owner = master_of[in_key] if in_key.size else empty
    out_owner = master_of[out_key] if out_key.size else empty
    return in_owner, out_owner


class Partition:
    """A placement of a graph onto ``num_machines`` simulated machines.

    Parameters
    ----------
    graph:
        The global graph.
    master_of:
        Machine id of each vertex's master copy.
    in_edge_owner:
        Storage machine of each edge, aligned with ``graph.in_indices``
        (the dst-sorted ordering scanned in pull mode).
    out_edge_owner:
        Storage machine of each edge, aligned with ``graph.out_indices``.
    kind:
        Human-readable partition strategy name.
    """

    def __init__(
        self,
        graph: CSRGraph,
        master_of: np.ndarray,
        in_edge_owner: np.ndarray,
        out_edge_owner: np.ndarray,
        kind: str,
        num_machines: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.master_of = np.asarray(master_of, dtype=np.int64)
        self._in_edge_owner = np.asarray(in_edge_owner, dtype=np.int64)
        self._out_edge_owner = np.asarray(out_edge_owner, dtype=np.int64)
        self.kind = kind

        if self.master_of.shape != (graph.num_vertices,):
            raise PartitionError("master_of must assign every vertex")
        if self.in_edge_owner.shape != (graph.num_edges,):
            raise PartitionError("in_edge_owner must cover every edge")
        if self.out_edge_owner.shape != (graph.num_edges,):
            raise PartitionError("out_edge_owner must cover every edge")
        machines = int(self.master_of.max(initial=-1)) + 1
        owners_max = max(
            int(self.in_edge_owner.max(initial=-1)),
            int(self.out_edge_owner.max(initial=-1)),
        )
        inferred = max(machines, owners_max + 1, 1)
        if num_machines is not None:
            if num_machines < inferred:
                raise PartitionError(
                    "num_machines smaller than the machines referenced "
                    "by the placement"
                )
            self.num_machines = num_machines
        else:
            self.num_machines = inferred
        if self.master_of.size and self.master_of.min() < 0:
            raise PartitionError("negative machine id in master_of")

        n = graph.num_vertices
        self._local_in: List[LocalAdjacency] = []
        self._local_out: List[LocalAdjacency] = []
        for m in range(self.num_machines):
            self._local_in.append(
                _restrict_csr(
                    n, graph.in_indptr, graph.in_indices, graph.in_weights,
                    self.in_edge_owner, m,
                )
            )
            self._local_out.append(
                _restrict_csr(
                    n, graph.out_indptr, graph.out_indices, graph.out_weights,
                    self.out_edge_owner, m,
                )
            )
        # has_in_edges[m, v]: machine m stores at least one in-edge of v.
        self._has_in = np.stack(
            [adj.degrees() > 0 for adj in self._local_in]
        ) if self.num_machines else np.zeros((0, n), dtype=bool)
        self._has_out = np.stack(
            [adj.degrees() > 0 for adj in self._local_out]
        ) if self.num_machines else np.zeros((0, n), dtype=bool)
        self._index_masters()

    def _index_masters(self) -> None:
        """The vertices by master (None: the identity, as id-range
        masters give) and where each machine's masters start in it."""
        master_of = self.master_of
        ascending = bool((master_of[1:] >= master_of[:-1]).all())
        self._master_order = None if ascending else np.argsort(
            master_of, kind="stable"
        )
        self._master_bounds = np.concatenate(([0], np.cumsum(
            np.bincount(master_of, minlength=self.num_machines)
        )))

    # -- edge placement ---------------------------------------------------

    def _owners(self) -> Tuple[np.ndarray, np.ndarray]:
        # a refreshed edge-cut partition derives both arrays on first
        # read, from the frozen masters; nothing on the run path reads them
        if self._in_edge_owner is None:
            self._in_edge_owner, self._out_edge_owner = edge_cut_owners(
                self.graph, self.master_of, self.kind
            )
        return self._in_edge_owner, self._out_edge_owner

    @property
    def in_edge_owner(self) -> np.ndarray:
        """Storage machine of each edge, aligned with ``graph.in_indices``."""
        return self._owners()[0]

    @property
    def out_edge_owner(self) -> np.ndarray:
        """Storage machine of each edge, aligned with ``graph.out_indices``."""
        return self._owners()[1]

    # -- vertex placement ------------------------------------------------

    def masters_of(self, machine: int) -> np.ndarray:
        """Vertices whose master copy lives on ``machine``."""
        return np.flatnonzero(self.master_of == machine)

    def in_mirrors_of(self, machine: int) -> np.ndarray:
        """Vertices mirrored on ``machine`` for pull mode."""
        mask = self._has_in[machine] & (self.master_of != machine)
        return np.flatnonzero(mask)

    def has_in_edges(self, machine: int, v: int) -> bool:
        """Does ``machine`` store at least one in-edge of ``v``?"""
        return bool(self._has_in[machine, v])

    def in_replica_count(self, v: int) -> int:
        """Number of machines holding in-edges of ``v``."""
        return int(self._has_in[:, v].sum())

    def num_in_mirrors(self) -> int:
        """Total in-mirror count across machines."""
        mirrors = self._has_in.copy()
        cols = np.arange(self.graph.num_vertices)
        mirrors[self.master_of, cols] = False
        return int(mirrors.sum())

    # -- per-machine adjacency --------------------------------------------

    def local_in(self, machine: int) -> LocalAdjacency:
        """In-edges stored on ``machine`` (pull mode scan)."""
        return self._local_in[machine]

    def local_out(self, machine: int) -> LocalAdjacency:
        """Out-edges stored on ``machine`` (push mode scan)."""
        return self._local_out[machine]

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises PartitionError on failure."""
        total_in = sum(adj.num_edges for adj in self._local_in)
        total_out = sum(adj.num_edges for adj in self._local_out)
        if total_in != self.graph.num_edges:
            raise PartitionError("in-edge ownership does not cover all edges")
        if total_out != self.graph.num_edges:
            raise PartitionError("out-edge ownership does not cover all edges")
        # in/out owners must describe the same multiset of placements:
        # count edges per machine in both orderings.
        in_counts = np.bincount(self.in_edge_owner, minlength=self.num_machines)
        out_counts = np.bincount(self.out_edge_owner, minlength=self.num_machines)
        if not np.array_equal(in_counts, out_counts):
            raise PartitionError("in/out edge ownership disagree per machine")


class Partitioner(ABC):
    """Strategy interface for placing a graph onto machines."""

    name: str = "abstract"

    @abstractmethod
    def partition(self, graph: CSRGraph, num_machines: int) -> Partition:
        """Place ``graph`` on ``num_machines`` machines."""

    def _check_machines(self, num_machines: int) -> None:
        if num_machines <= 0:
            raise PartitionError("num_machines must be positive")

"""Partition model: master/mirror assignment and per-machine adjacency.

A :class:`Partition` captures where every vertex's *master* copy lives
and where every *edge* is stored.  Following the paper (Section 2.2):

* the machine owning an edge executes the signal UDF for that edge;
* a machine holding at least one in-edge of ``v`` without owning ``v``
  keeps an (in-)*mirror* of ``v`` — it aggregates locally and sends one
  update message to the master per iteration;
* similarly for out-mirrors in push mode.

Edge ownership is direction-agnostic data: every edge has a storage
machine, in both the in-CSR and out-CSR edge orderings, and each
machine gets a pre-built local adjacency (a CSR over global vertex ids
holding only its edges) so engines can iterate
``local_in_neighbors(m, v)`` cheaply.  An edge cut's owners are a
function of the masters and are derived, not stored.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph, stable_order

__all__ = ["LocalAdjacency", "Partition", "Partitioner"]

#: partition kinds whose edge owners are a function of the masters
EDGE_CUT_KINDS = ("outgoing-edge-cut", "incoming-edge-cut")


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


def slice_view(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: Optional[np.ndarray],
    lo: int,
    hi: int,
) -> LocalAdjacency:
    """The entries ``lo:hi`` of one CSR direction as a machine's CSR:
    views of ``indices`` / ``weights`` (the graph holds them anyway)
    and a clipped ``indptr`` of its own."""
    return LocalAdjacency(
        np.clip(indptr, lo, hi) - lo,
        indices[lo:hi],
        weights[lo:hi] if weights is not None else None,
    )


def _restrict_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: Optional[np.ndarray],
    owner: np.ndarray,
    num_machines: int,
) -> List[LocalAdjacency]:
    """Every machine's view of one CSR direction.

    One stable grouping of the edges by owner: each machine's edge
    positions then ascend, so its ``indptr`` is where the direction's
    row starts fall among them, and its indices one gather.  Owners
    grouped already (an edge cut's master side, masters in id order)
    give each machine a slice: :func:`slice_view`.
    """
    order = stable_order(owner)
    if order is None:  # grouped already: contiguous shares
        bounds = np.searchsorted(owner, np.arange(num_machines + 1)).tolist()
        return [
            slice_view(indptr, indices, weights, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
        ]
    bounds = np.cumsum(np.bincount(owner, minlength=num_machines)).tolist()
    views = []
    for lo, hi in zip([0] + bounds, bounds):
        at = order[lo:hi]
        views.append(LocalAdjacency(
            np.searchsorted(at, indptr),
            indices[at],
            weights[at] if weights is not None else None,
        ))
    return views


def edge_endpoints(
    graph: CSRGraph,
) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """Each edge's ``(src, dst)``, in the in-CSR (dst-sorted) and in
    the out-CSR (src-sorted) edge ordering."""
    ids = np.arange(graph.num_vertices)
    return (
        (graph.in_indices, np.repeat(ids, graph.in_degrees())),
        (np.repeat(ids, graph.out_degrees()), graph.out_indices),
    )


def edge_cut_owners(
    graph: CSRGraph, master_of: np.ndarray, kind: str
) -> Tuple[np.ndarray, np.ndarray]:
    """(in_edge_owner, out_edge_owner) of an edge cut: an edge lives on
    the master of its source (outgoing) or destination (incoming)."""
    if kind == "outgoing-edge-cut":
        return (
            master_of[graph.in_indices],  # src, in dst-sorted order
            np.repeat(master_of, graph.out_degrees()),
        )
    return (  # incoming-edge-cut
        np.repeat(master_of, graph.in_degrees()),
        master_of[graph.out_indices],  # dst, in src-sorted order
    )


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
        (the dst-sorted ordering scanned in pull mode).  None, with
        ``out_edge_owner`` None too, for an edge cut: the owners are a
        function of the masters, derived to build the local adjacency
        and again on first read, never stored until then.
    out_edge_owner:
        Storage machine of each edge, aligned with ``graph.out_indices``.
    kind:
        Human-readable partition strategy name.
    """

    def __init__(
        self,
        graph: CSRGraph,
        master_of: np.ndarray,
        in_edge_owner: Optional[np.ndarray],
        out_edge_owner: Optional[np.ndarray],
        kind: str,
        num_machines: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.master_of = np.asarray(master_of, dtype=np.int64)
        self.kind = kind
        if self.master_of.shape != (graph.num_vertices,):
            raise PartitionError("master_of must assign every vertex")
        if in_edge_owner is None and out_edge_owner is None:
            if kind not in EDGE_CUT_KINDS:
                raise PartitionError(
                    f"partition kind {kind!r} must pass its edge owners; "
                    f"only {EDGE_CUT_KINDS} derive them from the masters"
                )
            self._in_edge_owner = self._out_edge_owner = None
            in_owner, out_owner = edge_cut_owners(graph, self.master_of, kind)
        else:
            self._in_edge_owner = in_owner = np.asarray(
                in_edge_owner, dtype=np.int64
            )
            self._out_edge_owner = out_owner = np.asarray(
                out_edge_owner, dtype=np.int64
            )
            if min(in_owner.min(initial=0), out_owner.min(initial=0)) < 0:
                raise PartitionError("negative machine id in edge owners")
        if in_owner.shape != (graph.num_edges,):
            raise PartitionError("in_edge_owner must cover every edge")
        if out_owner.shape != (graph.num_edges,):
            raise PartitionError("out_edge_owner must cover every edge")
        machines = int(self.master_of.max(initial=-1)) + 1
        owners_max = max(
            int(in_owner.max(initial=-1)), int(out_owner.max(initial=-1))
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

        self._local_in = _restrict_csr(
            graph.in_indptr, graph.in_indices, graph.in_weights,
            in_owner, self.num_machines,
        )
        self._local_out = _restrict_csr(
            graph.out_indptr, graph.out_indices, graph.out_weights,
            out_owner, self.num_machines,
        )
        # has_in_edges[m, v]: machine m stores at least one in-edge of v.
        n = graph.num_vertices
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
        self._master_order = stable_order(master_of)
        self._master_bounds = np.concatenate(([0], np.cumsum(
            np.bincount(master_of, minlength=self.num_machines)
        )))

    # -- edge placement ---------------------------------------------------

    def _owners(self) -> Tuple[np.ndarray, np.ndarray]:
        # an edge-cut partition derives both arrays on first read, from
        # its masters; nothing on the run path reads them
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

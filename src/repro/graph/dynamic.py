"""Dynamic graphs: batched mutations over an immutable CSR base.

The CSR container is immutable by design — every engine, partition,
and shared-memory publication assumes the adjacency it was built from
never moves.  Mutation therefore happens *around* the CSR, BLADYG
style: a :class:`DynamicGraph` keeps an immutable base
:class:`~repro.graph.csr.CSRGraph` plus a delta overlay (an insert log
and per-edge tombstones) that deletes are resolved against, and
periodically *compacts* the overlay into a fresh base.  Every applied
:class:`MutationBatch` bumps a monotone ``version`` — the tag the
:class:`~repro.api.Session` keys its partition cache on, so a mutated
graph can never be served a stale topology.

Semantics
---------

* Edges form a **multiset** (the CSR allows parallel edges).  An
  insert appends one copy; a delete removes **every** live copy of the
  named ``(u, v)`` pair and raises :class:`~repro.errors.GraphError`
  when none exists.
* Within one batch the order is: grow vertices, then deletes (against
  the pre-batch edge set), then inserts.  A batch is atomic — it
  either applies fully or raises without changing the graph.
* ``snapshot()`` materializes the current edge set as the
  :class:`CSRGraph` built from the **live edge list**: the version-0
  base's edges in out-CSR order, from which each batch removed every
  copy of its deleted pairs and to whose end it appended its inserts.
  It is computed by patching rows (:meth:`CSRGraph.patch`), never by
  re-sorting: the previous snapshot's rows, copies deleted, inserts
  appended, one batch at a time.  A base built from an unsorted list
  lists its in-rows in that list's order, not out order; its first
  snapshot is therefore built in full from the out-order list, and
  patches follow from there.  Compaction only resets the overlay: it
  does not reorder the list, so snapshots are the same with or
  without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, find_pairs, match_pairs, rows_sorted

__all__ = ["MutationBatch", "MutationStats", "DynamicGraph"]


def _as_vertex_array(values: Any, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise GraphError(f"{name} must be a 1-D array of vertex ids")
    if arr.size and arr.min() < 0:
        raise GraphError(f"{name} contains a negative vertex id")
    return arr


class MutationBatch:
    """One atomic set of graph mutations.

    Parameters
    ----------
    insert_src, insert_dst:
        Parallel endpoint arrays of edges to insert.
    insert_weights:
        Optional parallel weights (required iff the target graph is
        weighted).
    delete_src, delete_dst:
        Parallel endpoint arrays of edges to delete (every live copy).
    add_vertices:
        Number of fresh isolated vertices appended after the current
        id range.
    """

    def __init__(
        self,
        insert_src: Any = (),
        insert_dst: Any = (),
        insert_weights: Optional[Any] = None,
        delete_src: Any = (),
        delete_dst: Any = (),
        add_vertices: int = 0,
    ) -> None:
        self.insert_src = _as_vertex_array(insert_src, "insert_src")
        self.insert_dst = _as_vertex_array(insert_dst, "insert_dst")
        self.delete_src = _as_vertex_array(delete_src, "delete_src")
        self.delete_dst = _as_vertex_array(delete_dst, "delete_dst")
        if self.insert_src.shape != self.insert_dst.shape:
            raise GraphError("insert_src and insert_dst must parallel")
        if self.delete_src.shape != self.delete_dst.shape:
            raise GraphError("delete_src and delete_dst must parallel")
        self.insert_weights: Optional[np.ndarray] = None
        if insert_weights is not None:
            w = np.asarray(insert_weights, dtype=np.float64)
            if w.shape != self.insert_src.shape:
                raise GraphError(
                    "insert_weights must parallel the insert endpoints"
                )
            self.insert_weights = w
        if add_vertices < 0:
            raise GraphError(
                f"add_vertices must be >= 0, got {add_vertices}"
            )
        self.add_vertices = int(add_vertices)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def inserts(
        cls,
        edges: Iterable[Tuple[int, int]],
        weights: Optional[Iterable[float]] = None,
    ) -> "MutationBatch":
        """A pure-insert batch from ``(src, dst)`` pairs."""
        src, dst = _split_pairs(edges)
        w = None if weights is None else list(weights)
        return cls(insert_src=src, insert_dst=dst, insert_weights=w)

    @classmethod
    def deletes(cls, edges: Iterable[Tuple[int, int]]) -> "MutationBatch":
        """A pure-delete batch from ``(src, dst)`` pairs."""
        src, dst = _split_pairs(edges)
        return cls(delete_src=src, delete_dst=dst)

    # -- inspection --------------------------------------------------------

    @property
    def num_inserts(self) -> int:
        return int(self.insert_src.size)

    @property
    def num_deletes(self) -> int:
        return int(self.delete_src.size)

    @property
    def empty(self) -> bool:
        return (
            not self.num_inserts
            and not self.num_deletes
            and not self.add_vertices
        )

    def touched_vertices(self) -> np.ndarray:
        """Unique endpoints of every mutated edge (seeding anchor)."""
        return np.unique(
            np.concatenate([
                self.insert_src, self.insert_dst,
                self.delete_src, self.delete_dst,
            ])
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MutationBatch(inserts={self.num_inserts}, "
            f"deletes={self.num_deletes}, "
            f"add_vertices={self.add_vertices})"
        )

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON form: the shape ``POST /mutate`` accepts."""
        inserts: List[List[float]]
        if self.insert_weights is None:
            inserts = [
                [int(u), int(v)]
                for u, v in zip(self.insert_src, self.insert_dst)
            ]
        else:
            inserts = [
                [int(u), int(v), float(w)]
                for u, v, w in zip(
                    self.insert_src, self.insert_dst, self.insert_weights
                )
            ]
        return {
            "inserts": inserts,
            "deletes": [
                [int(u), int(v)]
                for u, v in zip(self.delete_src, self.delete_dst)
            ],
            "add_vertices": self.add_vertices,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MutationBatch":
        if not isinstance(payload, dict):
            raise GraphError("mutation payload must be an object")
        unknown = set(payload) - {"inserts", "deletes", "add_vertices"}
        if unknown:
            raise GraphError(
                f"unknown mutation fields {sorted(unknown)}; expected "
                "inserts, deletes, add_vertices"
            )
        ins_src: List[int] = []
        ins_dst: List[int] = []
        ins_w: List[float] = []
        weighted = None
        for row in payload.get("inserts") or ():
            if not isinstance(row, (list, tuple)) or len(row) not in (2, 3):
                raise GraphError(
                    f"insert rows must be [src, dst] or [src, dst, weight], "
                    f"got {row!r}"
                )
            has_w = len(row) == 3
            if weighted is None:
                weighted = has_w
            elif weighted != has_w:
                raise GraphError(
                    "insert rows must be uniformly weighted or unweighted"
                )
            ins_src.append(int(row[0]))
            ins_dst.append(int(row[1]))
            if has_w:
                ins_w.append(float(row[2]))
        del_src: List[int] = []
        del_dst: List[int] = []
        for row in payload.get("deletes") or ():
            if not isinstance(row, (list, tuple)) or len(row) != 2:
                raise GraphError(
                    f"delete rows must be [src, dst], got {row!r}"
                )
            del_src.append(int(row[0]))
            del_dst.append(int(row[1]))
        return cls(
            insert_src=ins_src,
            insert_dst=ins_dst,
            insert_weights=ins_w if weighted else None,
            delete_src=del_src,
            delete_dst=del_dst,
            add_vertices=int(payload.get("add_vertices") or 0),
        )


def _split_pairs(edges: Iterable[Tuple[int, int]]):
    src: List[int] = []
    dst: List[int] = []
    for pair in edges:
        u, v = pair
        src.append(int(u))
        dst.append(int(v))
    return src, dst


@dataclass
class MutationStats:
    """What one :meth:`DynamicGraph.apply` did."""

    version: int
    inserts: int
    deletes: int
    #: live edge copies removed (>= ``deletes`` with parallel edges)
    removed_copies: int
    add_vertices: int
    #: pending overlay work: live insert-log entries + base tombstones
    overlay_edges: int
    num_vertices: int
    num_edges: int
    compacted: bool


class DynamicGraph:
    """A mutable graph: immutable CSR base + delta overlay + versioning.

    ``compact_ratio`` / ``compact_min`` tune auto-compaction: after a
    batch, when the overlay (live inserts + base tombstones) exceeds
    ``max(compact_min, compact_ratio * base_edges)`` the current
    snapshot becomes the base and the overlay starts empty.
    ``compact_ratio=0`` compacts after every batch; a very large
    ``compact_min`` disables auto-compaction (call :meth:`compact`
    manually).
    """

    def __init__(
        self,
        base: CSRGraph,
        compact_ratio: float = 0.25,
        compact_min: int = 1024,
    ) -> None:
        if compact_ratio < 0:
            raise GraphError("compact_ratio must be >= 0")
        if compact_min < 0:
            raise GraphError("compact_min must be >= 0")
        self.compact_ratio = float(compact_ratio)
        self.compact_min = int(compact_min)
        self.version = 0
        self.compactions = 0
        self._history: List[Tuple[int, MutationBatch]] = []
        self._rebase(base)
        self._snapshot: CSRGraph = base
        self._snapshot_version = 0

    def _rebase(self, base: CSRGraph) -> None:
        self._base = base
        self._base_live = np.ones(base.num_edges, dtype=bool)
        self._ins_src = np.empty(0, dtype=np.int64)
        self._ins_dst = np.empty(0, dtype=np.int64)
        self._ins_live = np.empty(0, dtype=bool)
        self._num_vertices = base.num_vertices

    # -- basic facts -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return int(self._base_live.sum() + self._ins_live.sum())

    @property
    def is_weighted(self) -> bool:
        return self._base.is_weighted

    @property
    def base(self) -> CSRGraph:
        """The immutable CSR the overlay currently layers over."""
        return self._base

    @property
    def overlay_edges(self) -> int:
        """Pending overlay entries: live inserts + base tombstones."""
        dead_base = self._base_live.size - int(self._base_live.sum())
        return int(self._ins_live.sum()) + dead_base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicGraph(version={self.version}, "
            f"num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, "
            f"overlay_edges={self.overlay_edges})"
        )

    # -- mutation ----------------------------------------------------------

    def apply(self, batch: MutationBatch) -> MutationStats:
        """Apply one batch atomically; bumps ``version``."""
        if not isinstance(batch, MutationBatch):
            raise GraphError(
                f"apply() takes a MutationBatch, got {type(batch).__name__}"
            )
        n = self._num_vertices + batch.add_vertices
        for name, arr in (
            ("insert", batch.insert_src), ("insert", batch.insert_dst),
            ("delete", batch.delete_src), ("delete", batch.delete_dst),
        ):
            if arr.size and arr.max() >= n:
                raise GraphError(
                    f"{name} endpoint {int(arr.max())} out of range "
                    f"[0, {n}) (after add_vertices={batch.add_vertices})"
                )
        if self.is_weighted and batch.num_inserts:
            if batch.insert_weights is None:
                raise GraphError(
                    "graph is weighted: inserts must carry weights"
                )
        elif not self.is_weighted and batch.insert_weights is not None:
            raise GraphError(
                "graph is unweighted: inserts must not carry weights"
            )

        # resolve every delete against the pre-batch edge set before
        # committing anything, so a bad batch leaves the graph untouched
        base_kill, ins_kill, removed = self._resolve_deletes(batch)

        # commit
        self._num_vertices = n
        if base_kill.size:
            self._base_live[base_kill] = False
        if ins_kill.size:
            self._ins_live[ins_kill] = False
        if batch.num_inserts:
            self._ins_src = np.concatenate([self._ins_src, batch.insert_src])
            self._ins_dst = np.concatenate([self._ins_dst, batch.insert_dst])
            self._ins_live = np.concatenate([
                self._ins_live, np.ones(batch.num_inserts, dtype=bool),
            ])
        self.version += 1
        self._history.append((self.version, batch))

        compacted = False
        threshold = max(
            self.compact_min,
            int(self.compact_ratio * self._base.num_edges),
        )
        if self.overlay_edges > threshold:
            self.compact()
            compacted = True
        return MutationStats(
            version=self.version,
            inserts=batch.num_inserts,
            deletes=batch.num_deletes,
            removed_copies=removed,
            add_vertices=batch.add_vertices,
            overlay_edges=self.overlay_edges,
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
            compacted=compacted,
        )

    def _resolve_deletes(self, batch: MutationBatch):
        """Find every live copy of each deleted pair (or raise).

        One read of the base's deleted rows and one match against the
        insert log.  The error names the first pair, in batch order,
        with no live copy — a pair named a second time counts, since
        its first naming already removed every copy.
        """
        du, dv = batch.delete_src, batch.delete_dst
        if not du.size:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, 0
        base = self._base
        pos, base_pair = find_pairs(base.out_indptr, base.out_indices, du, dv)
        live = self._base_live[pos]
        base_kill, base_pair = pos[live], base_pair[live]
        log = np.flatnonzero(self._ins_live)
        hit, ins_pair = match_pairs(
            self._ins_src[log], self._ins_dst[log], du, dv
        )
        ins_kill = log[hit]
        found = np.zeros(du.size, dtype=bool)
        found[base_pair] = True
        found[ins_pair] = True
        _, first = match_pairs(du, dv, du, dv)
        bad = np.flatnonzero(~found | (first != np.arange(du.size)))
        if bad.size:
            u, v = int(du[bad[0]]), int(dv[bad[0]])
            raise GraphError(
                f"cannot delete absent edge ({u}, {v}); deletes "
                "apply to the pre-batch edge set"
            )
        return base_kill, ins_kill, int(base_kill.size + ins_kill.size)

    # -- materialization ---------------------------------------------------

    def snapshot(self) -> CSRGraph:
        """The current edge multiset as an immutable CSR (see the module
        docstring for its row order).

        Cached per version: repeated calls between mutations return the
        same object (identity matters — executors rebind on it).  Each
        batch since the last call costs one :meth:`CSRGraph.patch`.
        """
        if self._snapshot_version == self.version:
            return self._snapshot
        graph = self._snapshot
        if self._snapshot_version == 0 and not rows_sorted(
            graph.in_indptr, graph.in_indices
        ):
            # in-rows out of source order: the base was built from an
            # unsorted list, not its out-order one, so build from that
            # once (sorted in-rows suffice: see csr's row-order note)
            src, dst = graph.edge_array()
            graph = CSRGraph(graph.num_vertices, src, dst, graph.out_weights)
        # _history[i] holds version i + 1, so this slice is every batch
        # applied after the cached snapshot
        for _, batch in self._history[self._snapshot_version:]:
            graph = graph.patch(
                graph.num_vertices + batch.add_vertices,
                (batch.delete_src, batch.delete_dst),
                (batch.insert_src, batch.insert_dst, batch.insert_weights),
            )
        self._snapshot = graph
        self._snapshot_version = self.version
        return graph

    def compact(self) -> CSRGraph:
        """Fold the overlay into the bookkeeping: the current snapshot
        becomes the base and the insert log and tombstones start empty.
        Snapshots are unaffected.  Returns the new base."""
        base = self.snapshot()
        self._rebase(base)
        self.compactions += 1
        return base

    # -- history -----------------------------------------------------------

    def batches_since(
        self, version: int
    ) -> Optional[List[Tuple[int, MutationBatch]]]:
        """``(version, batch)`` pairs applied after ``version``.

        Returns None when ``version`` is ahead of this graph (an
        incremental handle from another lineage must recompute).
        """
        if version > self.version or version < 0:
            return None
        return [(v, b) for v, b in self._history if v > version]

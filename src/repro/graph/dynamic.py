"""Dynamic graphs: batched mutations over immutable CSR snapshots.

The CSR container is immutable by design — every engine, partition,
and shared-memory publication assumes the adjacency it was built from
never moves.  A :class:`DynamicGraph` therefore mutates by
*replacement*: it holds the current :class:`~repro.graph.csr.CSRGraph`
and, for each applied :class:`MutationBatch`, swaps in the patched
graph (:meth:`CSRGraph.patch`) and bumps a monotone ``version`` — the
tag the :class:`~repro.api.Session` keys its partition cache on, so a
mutated graph can never be served a stale topology.

Semantics
---------

* Edges form a **multiset** (the CSR allows parallel edges).  An
  insert appends one copy; a delete removes **every** live copy of the
  named ``(u, v)`` pair and raises :class:`~repro.errors.GraphError`
  when none exists.
* Within one batch the order is: grow vertices, then deletes (against
  the pre-batch edge set), then inserts.  A batch is atomic — it
  either applies fully or raises without changing the graph.
* ``snapshot()`` is the current graph: the CSR built from the **live
  edge list** — the version-0 base's edges in out-CSR order, from
  which each batch removed every copy of its deleted pairs and to
  whose end it appended its inserts.  Each batch patches the previous
  snapshot's rows, never re-sorts.  A base built from an unsorted list
  lists its in-rows in that list's order, not out order; the first
  batch therefore patches the build from the out-order list instead.
  Only the current snapshot is kept: the base and every older version
  are freed once nothing else holds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, find_pairs, match_pairs, rows_sorted

__all__ = ["MutationBatch", "MutationStats", "DynamicGraph"]


def is_integer(value: Any) -> bool:
    """True for an int or NumPy integer; a bool, float or string is
    not one (a vertex id is never truncated into range)."""
    return isinstance(value, (int, np.integer)) and not isinstance(
        value, bool
    )


def _as_vertex_array(values: Any, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise GraphError(f"{name} must be a 1-D array of vertex ids")
    # a list is checked id by id: NumPy casts [1, True] to int64
    if arr.size and (arr.dtype.kind not in "iu" or not (
        isinstance(values, np.ndarray) or all(map(is_integer, values))
    )):
        raise GraphError(f"{name} must hold integer vertex ids")
    arr = arr.astype(np.int64)
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
        if not is_integer(add_vertices) or add_vertices < 0:
            raise GraphError(
                f"add_vertices must be an integer >= 0, got {add_vertices!r}"
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
            ins_src.append(row[0])
            ins_dst.append(row[1])
            if has_w:
                ins_w.append(float(row[2]))
        del_src: List[int] = []
        del_dst: List[int] = []
        for row in payload.get("deletes") or ():
            if not isinstance(row, (list, tuple)) or len(row) != 2:
                raise GraphError(
                    f"delete rows must be [src, dst], got {row!r}"
                )
            del_src.append(row[0])
            del_dst.append(row[1])
        return cls(
            insert_src=ins_src,
            insert_dst=ins_dst,
            insert_weights=ins_w if weighted else None,
            delete_src=del_src,
            delete_dst=del_dst,
            add_vertices=payload.get("add_vertices") or 0,
        )


def _split_pairs(edges: Iterable[Tuple[int, int]]):
    pairs = [tuple(pair) for pair in edges]
    return [u for u, _ in pairs], [v for _, v in pairs]


@dataclass
class MutationStats:
    """What one :meth:`DynamicGraph.apply` did."""

    version: int
    inserts: int
    deletes: int
    #: live edge copies removed (>= ``deletes`` with parallel edges)
    removed_copies: int
    add_vertices: int
    num_vertices: int
    num_edges: int

    # constants, not fields: the benchmark spine's dyn_stream still
    # reads them (ROADMAP item 8(d)); drop them with its next change
    overlay_edges = 0
    compacted = False


class DynamicGraph:
    """A mutable graph: the current CSR snapshot, its ``version`` and
    the batches applied so far."""

    def __init__(self, base: CSRGraph) -> None:
        self._graph = base
        self.version = 0
        self._history: List[Tuple[int, MutationBatch]] = []

    # -- basic facts -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self._graph.num_edges

    @property
    def is_weighted(self) -> bool:
        return self._graph.is_weighted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicGraph(version={self.version}, "
            f"num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )

    # -- mutation ----------------------------------------------------------

    def apply(self, batch: MutationBatch) -> MutationStats:
        """Apply one batch atomically; bumps ``version``."""
        if not isinstance(batch, MutationBatch):
            raise GraphError(
                f"apply() takes a MutationBatch, got {type(batch).__name__}"
            )
        n = self.num_vertices + batch.add_vertices
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
        graph = self._graph
        removed = self._resolve_deletes(graph, batch)
        if self.version == 0 and not rows_sorted(
            graph.in_indptr, graph.in_indices
        ):
            # in-rows out of source order: the base was built from an
            # unsorted list, not its out-order one, so build from that
            # once (sorted in-rows suffice: see csr's row-order note)
            src, dst = graph.edge_array()
            graph = CSRGraph(graph.num_vertices, src, dst, graph.out_weights)
        # patch returns a new graph: nothing is committed until here
        self._graph = graph.patch(
            n,
            (batch.delete_src, batch.delete_dst),
            (batch.insert_src, batch.insert_dst, batch.insert_weights),
        )
        self.version += 1
        self._history.append((self.version, batch))
        return MutationStats(
            version=self.version,
            inserts=batch.num_inserts,
            deletes=batch.num_deletes,
            removed_copies=removed,
            add_vertices=batch.add_vertices,
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
        )

    @staticmethod
    def _resolve_deletes(graph: CSRGraph, batch: MutationBatch) -> int:
        """Count the live copies of each deleted pair (or raise).

        One read of the deleted out-rows.  The error names the first
        pair, in batch order, with no live copy — a pair named a second
        time counts, since its first naming already removed every copy.
        """
        du, dv = batch.delete_src, batch.delete_dst
        if not du.size:
            return 0
        pos, pair = find_pairs(graph.out_indptr, graph.out_indices, du, dv)
        found = np.zeros(du.size, dtype=bool)
        found[pair] = True
        _, first = match_pairs(du, dv, du, dv)
        bad = np.flatnonzero(~found | (first != np.arange(du.size)))
        if bad.size:
            u, v = int(du[bad[0]]), int(dv[bad[0]])
            raise GraphError(
                f"cannot delete absent edge ({u}, {v}); deletes "
                "apply to the pre-batch edge set"
            )
        return int(pos.size)

    def snapshot(self) -> CSRGraph:
        """The current edge multiset as an immutable CSR (see the module
        docstring for its row order).

        The same object until the next :meth:`apply` (identity matters —
        executors rebind on it).
        """
        return self._graph

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

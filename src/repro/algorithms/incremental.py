"""Incremental BFS / CC / k-core over a mutating :class:`Session` graph.

Each handle computes once from scratch, then — after the session's
graph mutates — repairs only the *affected subgraph* instead of
re-running the whole algorithm:

* **inserts** seed the relaxation at the inserted edges' destinations
  (a new edge can only improve a monotone quantity downstream of it);
* **deletes** invalidate exactly the vertices that lost their last
  *support*: every value sits at a ``level`` (the BFS depth itself; for
  CC the hop count from the label's own vertex, kept beside the label),
  and a vertex keeps its value while some surviving in-neighbour one
  level up, in the same ``group`` (same label; BFS has one group),
  keeps its own.  The unsupported reset to their identity value and
  re-relax against the untouched boundary.

CC's levels are themselves repaired, not recomputed: after the
relaxation only the *dirty* vertices (unsupported, relabelled, added)
and the inserted edges' destinations can hold a changed level, so
:func:`_repair_levels` re-derives those and pushes each fall along
same-label out-edges; the whole-graph :func:`_levels` sweep runs for
the scratch refresh alone.

Both algorithms are monotone min-folds with canonical fixpoints
(shortest hop count; minimum reaching vertex id), so the repaired
state is **bit-identical** to a from-scratch run on the equivalent
static graph — the metamorphic gate the dynamic-graph test suite
enforces on every batch, across the serial and process executors.

The relaxation phases run through the ordinary engine pull protocol
(via :meth:`Session.engine_context`), so dependency accounting, the
executor backends, and observability all apply unchanged.  Incremental
k-core (BLADYG's case study) repairs deletion-only batches by cascade
peeling inside the previous core and falls back to a snapshot recompute
when a batch inserts edges.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.cc import _min_slot, cc_signal, connected_components
from repro.algorithms.kcore import check_k, kcore_peel
from repro.algorithms.relax import RelaxProgram, Relaxation, flat_neighbors
from repro.errors import GraphError
from repro.fault.program import run_program
from repro.graph.csr import CSRGraph, is_integer, sorted_unique
from repro.graph.dynamic import MutationBatch

__all__ = [
    "IncrementalBFS",
    "IncrementalCC",
    "IncrementalKCore",
    "IncrementalResult",
    "relax_depth_signal",
]

#: unreached sentinel: large enough that depth never reaches it, small
#: enough that ``INF + 1`` cannot overflow int64
_INF = np.int64(1) << np.int64(62)


def relax_depth_signal(v, nbrs, s, emit):
    """Emit the best in-neighbor depth + 1 if it beats the current one."""
    best = s.depth[v]
    for u in nbrs:
        if s.depth[u] + 1 < best:
            best = s.depth[u] + 1
    if best < s.depth[v]:
        # min-fold into an idempotent min-slot: re-delivering the same
        # depth is harmless, so the double-count hazard does not apply.
        emit(best)  # repro: noqa[cumulative-emit]


def _depth_slot(v, value, s):
    if value < s.depth[v]:
        s.depth[v] = value
        return True
    return False


def _array_digest(tag: str, array: np.ndarray) -> str:
    payload = np.ascontiguousarray(array.astype("<i8", copy=False))
    h = hashlib.sha256()
    h.update(tag.encode("utf-8"))
    h.update(payload.tobytes())
    return h.hexdigest()


@dataclass
class IncrementalResult:
    """One refresh outcome: the repaired per-vertex array + provenance."""

    #: "bfs", "cc", or "kcore"
    algorithm: str
    #: depths (-1 unreached) / component labels / core membership (0/1)
    values: np.ndarray
    #: graph version the values are exact for
    version: int
    #: "scratch" or "incremental"
    mode: str
    #: engine pull iterations (0 for a no-op refresh and for kcore)
    iterations: int

    def digest(self) -> str:
        """Canonical sha256 over the result values (version-free, so
        an incremental repair and a from-scratch run digest equal)."""
        return _array_digest(f"{self.algorithm}:", self.values)


def _relax(engine, field, values, signal, slot, seeds=None, first=None):
    """Relax the ``field`` array ``values`` to fixpoint on the BSP
    schedule, from the pending ``seeds`` or — for a repair — from the
    explicit ``first`` wave of candidates; returns (values, pulls)."""

    def init(engine, s):
        s.set(field, values)
        return first if seeds is None else seeds

    def pack(s, iterations, ctx):
        return s.array(field).copy(), iterations

    return run_program(
        RelaxProgram(Relaxation(
            "incremental relaxation", init, field, signal, slot, pack,
            first=first,
        )),
        engine,
    )


def _unsupported(
    graph: CSRGraph,
    group: Optional[np.ndarray],
    level: np.ndarray,
    seeds: np.ndarray,
) -> np.ndarray:
    """Deletion-invalidated vertices, given every value's ``level``.

    Ramalingam–Reps support pruning in array passes: a candidate at
    level ``d`` keeps its value if some *surviving* in-neighbour at
    level ``d - 1`` of the same ``group`` (``None``: one group) is
    itself unaffected; only the unsupported are invalidated, and their
    same-group out-neighbours one level down become candidates, once.
    Levels are judged in ascending order, so every ``d - 1`` verdict is
    final before level ``d`` is — the support check is exact, not a
    heuristic.  Level-0 values (the BFS root, a component's own
    minimum) are axiomatic; ``seeds`` are the deleted edges'
    destinations.
    """
    affected = np.zeros(graph.num_vertices, dtype=bool)
    enqueued = np.zeros(graph.num_vertices, dtype=bool)
    at = level[seeds]
    pending = sorted_unique(seeds[(at > 0) & (at < _INF)])
    enqueued[pending] = True
    while pending.size:
        at = level[pending]
        d = at.min()
        now, pending = pending[at == d], pending[at != d]
        lengths, u = flat_neighbors(graph.in_indptr, graph.in_indices, now)
        owner = np.repeat(np.arange(now.size), lengths)
        holds = (level[u] == d - 1) & ~affected[u]
        if group is not None:
            holds &= group[u] == group[now[owner]]
        supported = np.zeros(now.size, dtype=bool)
        supported[owner[holds]] = True
        lost = now[~supported]
        affected[lost] = True
        lengths, w = flat_neighbors(graph.out_indptr, graph.out_indices, lost)
        below = (level[w] == d + 1) & ~enqueued[w]
        if group is not None:
            below &= group[w] == np.repeat(group[lost], lengths)
        children = sorted_unique(w[below])
        enqueued[children] = True
        pending = np.concatenate([pending, children])
    return affected


def _repair_levels(
    graph: CSRGraph,
    label: np.ndarray,
    level: np.ndarray,
    dirty: np.ndarray,
    shortcut: np.ndarray,
) -> np.ndarray:
    """:func:`_levels` after a refresh, re-derived only where it moved.

    ``level`` holds the previous levels (``0`` for added vertices);
    ``dirty`` marks every vertex whose old level may no longer be
    achieved (unsupported, relabelled or added) and ``shortcut`` lists
    the inserted edges' destinations, the only places a level can fall
    below a non-dirty vertex.  Dirty levels restart from scratch (0 at
    a label's own vertex, else unknown), every seed takes one more than
    its lowest same-label in-neighbour, and each fall is pushed along
    same-label out-edges in ascending level order, so every vertex
    settles once.  Every other level is still achieved and can only
    fall, so the fixpoint is the BFS distance :func:`_levels` computes.
    """
    n = graph.num_vertices
    level = level.copy()
    level[dirty] = _INF
    roots = label == np.arange(n)
    level[dirty & roots] = 0
    seeds = np.union1d(np.flatnonzero(dirty), shortcut)
    seeds = seeds[~roots[seeds]]
    lengths, u = flat_neighbors(graph.in_indptr, graph.in_indices, seeds)
    owner = np.repeat(np.arange(seeds.size), lengths)
    same = label[u] == label[seeds[owner]]
    best = np.full(seeds.size, _INF, dtype=np.int64)
    np.minimum.at(best, owner[same], level[u[same]] + 1)
    level[seeds] = np.minimum(level[seeds], best)
    pending = np.union1d(seeds, np.flatnonzero(dirty & roots))
    pending = pending[level[pending] < _INF]
    while pending.size:
        at = level[pending]
        d = at.min()
        now, pending = sorted_unique(pending[at == d]), pending[at != d]
        lengths, w = flat_neighbors(graph.out_indptr, graph.out_indices, now)
        same = label[w] == np.repeat(label[now], lengths)
        w = sorted_unique(w[same & (level[w] > d + 1)])
        level[w] = d + 1
        pending = np.concatenate([pending, w])
    return level


def _levels(graph: CSRGraph, label: np.ndarray) -> np.ndarray:
    """Hops from vertex ``label[v]`` to ``v`` inside its label class.

    Every path from a label's own vertex stays inside the class (what
    it reaches is labelled no higher, what reaches ``v`` no lower), so
    this is one multi-source BFS from ``{v : label[v] == v}`` over the
    out-edges whose endpoints share a label.
    """
    level = np.full(graph.num_vertices, _INF, dtype=np.int64)
    frontier = np.flatnonzero(label == np.arange(graph.num_vertices))
    d = 0
    while frontier.size:
        level[frontier] = d
        d += 1
        lengths, w = flat_neighbors(
            graph.out_indptr, graph.out_indices, frontier
        )
        fresh = (level[w] == _INF) & (label[w] == np.repeat(
            label[frontier], lengths
        ))
        frontier = sorted_unique(w[fresh])
    return level


def _collect_mutations(
    batches: List[Tuple[int, MutationBatch]], n: int
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """(insert destinations, delete destinations, any inserts) in-range."""
    ins: List[np.ndarray] = []
    dels: List[np.ndarray] = []
    any_inserts = False
    for _, batch in batches:
        if batch.num_inserts:
            any_inserts = True
            ins.append(batch.insert_dst)
        if batch.num_deletes:
            dels.append(batch.delete_dst)
    empty = np.empty(0, dtype=np.int64)
    ins_dst = sorted_unique(np.concatenate(ins)) if ins else empty
    del_dst = sorted_unique(np.concatenate(dels)) if dels else empty
    return ins_dst[ins_dst < n], del_dst[del_dst < n], any_inserts


class _IncrementalBase:
    """Shared session/version bookkeeping of the incremental handles."""

    algorithm = "abstract"

    def __init__(self, session, config=None) -> None:
        self.session = session
        self.config = config if config is not None else session.config
        self.version = -1
        self._values: Optional[np.ndarray] = None

    def result(self) -> IncrementalResult:
        """The latest refreshed result (refresh() must have run)."""
        if self._values is None:
            raise GraphError(
                f"incremental {self.algorithm} has no result yet; "
                "call refresh()"
            )
        return IncrementalResult(
            algorithm=self.algorithm,
            values=self._present(self._values),
            version=self.version,
            mode=self._mode,
            iterations=self._iterations,
        )

    def _present(self, values: np.ndarray) -> np.ndarray:
        return values.copy()

    def refresh(self) -> IncrementalResult:
        """Bring the result up to the session's current graph version."""
        with self.session.engine_context(self.config) as (
            engine, graph, version
        ):
            if version == self.version and self._values is not None:
                self._mode = "noop"
                self._iterations = 0
                return self.result()
            batches = self.session.mutations_since(self.version)
            if self._values is None or batches is None:
                self._mode = "scratch"
                self._iterations = self._scratch(engine, graph)
            else:
                self._mode = "incremental"
                self._iterations = self._incremental(engine, graph, batches)
            self.version = version
        return self.result()

    # hooks ---------------------------------------------------------------

    def _scratch(self, engine, graph: CSRGraph) -> int:
        raise NotImplementedError

    def _incremental(self, engine, graph: CSRGraph, batches) -> int:
        raise NotImplementedError


class IncrementalBFS(_IncrementalBase):
    """Incremental single-source hop counts (canonical BFS depths)."""

    algorithm = "bfs"

    def __init__(self, session, root: int, config=None) -> None:
        super().__init__(session, config)
        if not is_integer(root):
            raise GraphError(f"BFS root must be a vertex id, got {root!r}")
        root = int(root)
        if root < 0 or root >= session.graph.num_vertices:
            raise GraphError(
                f"BFS root {root} out of range "
                f"[0, {session.graph.num_vertices})"
            )
        self.root = root

    def _present(self, values: np.ndarray) -> np.ndarray:
        out = values.copy()
        out[out >= _INF] = -1
        return out

    def _scratch(self, engine, graph: CSRGraph) -> int:
        depth = np.full(graph.num_vertices, _INF, dtype=np.int64)
        depth[self.root] = 0
        self._values, iterations = _relax(
            engine, "depth", depth, relax_depth_signal, _depth_slot,
            seeds=[self.root],
        )
        return iterations

    def _incremental(self, engine, graph: CSRGraph, batches) -> int:
        n = graph.num_vertices
        old = self._values
        depth = np.concatenate([
            old, np.full(n - old.size, _INF, dtype=np.int64),
        ]) if n > old.size else old.copy()
        ins_dst, del_dst, _ = _collect_mutations(batches, n)
        affected = _unsupported(graph, None, depth, del_dst)
        depth[affected] = _INF
        affected[ins_dst] = True
        self._values, iterations = _relax(
            engine, "depth", depth, relax_depth_signal, _depth_slot,
            first=affected,
        )
        return iterations


class IncrementalCC(_IncrementalBase):
    """Incremental label propagation (min reaching vertex id), with
    each vertex's hop count from its label's own vertex kept beside
    the label so a delete invalidates by support.  The scratch refresh
    sweeps the levels once (:func:`_levels`); every incremental refresh
    repairs them where the batch can have moved them
    (:func:`_repair_levels`), bit-identical to a fresh sweep."""

    algorithm = "cc"

    def _scratch(self, engine, graph: CSRGraph) -> int:
        result = connected_components(engine)
        self._values = result.label
        self._level = _levels(graph, result.label)
        return result.iterations

    def _incremental(self, engine, graph: CSRGraph, batches) -> int:
        n = graph.num_vertices
        old = self._values
        grown = np.arange(old.size, n, dtype=np.int64)
        # a vertex added since enters as its own level-0 component
        label = np.concatenate([old, grown])
        level = np.concatenate([self._level, np.zeros_like(grown)])
        ins_dst, del_dst, _ = _collect_mutations(batches, n)
        affected = _unsupported(graph, label, level, del_dst)
        reset = np.flatnonzero(affected)
        label[reset] = reset  # back to identity, re-derive from boundary
        first = affected.copy()
        first[ins_dst] = True
        self._values, iterations = _relax(
            engine, "label", label, cc_signal, _min_slot, first=first,
        )
        # dirty: unsupported, relabelled, or added in this refresh
        affected[:old.size] |= self._values[:old.size] != old
        affected[old.size:] = True
        self._level = _repair_levels(
            graph, self._values, level, affected, ins_dst,
        )
        return iterations


class IncrementalKCore(_IncrementalBase):
    """Incremental k-core membership (BLADYG's case study).

    Deletions only shrink the core, so a deletion-only batch sequence
    repairs by cascade-peeling inside the previous core.  Inserted
    edges can grow the core non-locally; those batches recompute on the
    snapshot (same single-machine peel as
    :func:`~repro.algorithms.kcore.kcore_peel`, so results stay exact).
    """

    algorithm = "kcore"

    def __init__(self, session, k: int, config=None) -> None:
        super().__init__(session, config)
        self.k = check_k(k)

    def refresh(self) -> IncrementalResult:
        # no engine phases: peel is the single-machine reference path
        graph, version = self.session._graph_snapshot()
        if version == self.version and self._values is not None:
            self._mode = "noop"
            self._iterations = 0
            return self.result()
        batches = self.session.mutations_since(self.version)
        if self._values is None or batches is None:
            self._mode = "scratch"
            self._scratch_peel(graph)
        else:
            _, _, any_inserts = _collect_mutations(
                batches, graph.num_vertices
            )
            if any_inserts:
                self._mode = "scratch"
                self._scratch_peel(graph)
            else:
                self._mode = "incremental"
                self._shrink(graph)
        self._iterations = 0
        self.version = version
        return self.result()

    def _present(self, values: np.ndarray) -> np.ndarray:
        return values.astype(np.int64)

    def _scratch_peel(self, graph: CSRGraph) -> None:
        self._values = kcore_peel(graph, self.k).in_core

    def _shrink(self, graph: CSRGraph) -> None:
        """Cascade-peel the previous core against the shrunken graph."""
        n = graph.num_vertices
        old = self._values
        in_core = np.concatenate([
            old, np.zeros(n - old.size, dtype=bool),
        ]) if n > old.size else old.copy()
        # degree within the candidate set, on the post-deletion graph
        degree = np.zeros(n, dtype=np.int64)
        members = np.flatnonzero(in_core)
        lengths, u = flat_neighbors(graph.in_indptr, graph.in_indices, members)
        np.add.at(degree, np.repeat(members, lengths)[in_core[u]], 1)
        queue = deque(members[degree[members] < self.k].tolist())
        while queue:
            v = queue.popleft()
            if not in_core[v]:
                continue
            in_core[v] = False
            for u in graph.in_neighbors(v):
                u = int(u)
                if not in_core[u]:
                    continue
                degree[u] -= 1
                if degree[u] < self.k:
                    queue.append(u)
        self._values = in_core

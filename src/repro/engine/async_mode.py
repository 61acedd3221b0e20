"""Asynchronous priority-driven execution: the bucket scheduler.

The BSP engines run every active vertex in lock-step supersteps.  This
module adds the ASYMP-style alternative: a *priority bucket scheduler*
that drains vertices in priority order (BFS depth, tentative SSSP
distance, CC label, PageRank residual mass) and only activates the
vertices whose priority falls inside the current bucket.  Each
*activation wave* is one engine pull/push phase — so every wave is one
:class:`~repro.runtime.counters.IterationRecord`, the cost model
charges per wave, the executor's deterministic ascending-machine merge
makes each wave bit-identical across the serial and process backends,
and the SympleGraph engine rebuilds its circulant dependency bitmaps
per pull — i.e. dependency notifications are evaluated *at activation
time against the freshest remote state*, per bucket rather than per
superstep, which is exactly the paper's loop-carried guarantee carried
over to a non-BSP schedule.

Determinism contract: the schedule is a pure function of (graph, seed,
bucket width).  The seed jitters the bucket *boundary offset* (the
classic randomized delta-stepping trick), so different seeds genuinely
produce different schedules, yet a fixed seed + fixed width gives
bit-identical results across executor backends.  For the monotone
algorithms (BFS, SSSP with non-negative weights, CC) every schedule
converges to the same unique fixpoint, so async results digest equal
to sync; PageRank converges epsilon-bounded (see ``docs/API.md``).

``dgalois`` is excluded: its Gluon-style reduce/broadcast only
synchronizes replicas at phase granularity over a vertex cut, which
has no per-bucket activation story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.algorithms.bfs import BFSResult, bottom_up_signal
from repro.algorithms.cc import CCResult, _min_slot, cc_signal
from repro.algorithms.pagerank import PageRankResult
from repro.algorithms.sssp import (
    SSSPResult,
    _relax_slot,
    _weight_lookup,
    sssp_signal,
)
from repro.engine.base import BaseEngine
from repro.engine.state import StateStore
from repro.errors import ConvergenceError, EngineError, GraphError
from repro.fault.program import VertexProgram

__all__ = [
    "ASYNC_ENGINES",
    "AsyncBFSProgram",
    "AsyncBFSResult",
    "AsyncCCResult",
    "AsyncPageRankResult",
    "AsyncSSSPResult",
    "async_cc",
    "async_pagerank",
    "async_sssp",
    "default_bucket_width",
]

#: engine kinds whose phase protocol supports per-bucket activation
ASYNC_ENGINES = ("symple", "gemini", "single")


def _require_async(engine: BaseEngine) -> None:
    if not getattr(engine, "supports_async", False):
        raise EngineError(
            f"the {engine.kind!r} engine does not support mode='async'; "
            f"bucket scheduling runs on {ASYNC_ENGINES}"
        )


def default_bucket_width(algorithm: str, graph) -> float:
    """The bucket width a ``RunConfig(async_bucket_width=None)`` run uses.

    Deterministic functions of the graph alone, so the default stays
    inside the fixed-(seed, width) reproducibility contract:

    * ``bfs`` — 1 depth level per bucket;
    * ``sssp`` — 4x the mean edge weight (the delta-stepping
      rule of thumb), or 1.0 on an edgeless graph;
    * ``cc`` — one eighth of the label space per bucket;
    * ``pagerank`` — threshold halves per bucket (width 1.0 means
      a decay factor of ``2**-1``).
    """
    if algorithm == "sssp":
        if graph.num_edges == 0:
            return 1.0
        mean = float(graph.in_weights.mean())
        return 4.0 * mean if mean > 0 else 1.0
    if algorithm == "cc":
        return float(max(1, graph.num_vertices // 8))
    return 1.0


def _resolve_width(algorithm: str, graph, width: Optional[float]) -> float:
    if width is None:
        return default_bucket_width(algorithm, graph)
    width = float(width)
    if not width > 0:
        raise EngineError(
            f"async_bucket_width must be > 0, got {width}"
        )
    return width


def _out_candidates(graph, frontier_idx: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of out-neighbors of the frontier."""
    candidates = np.zeros(n, dtype=bool)
    for u in frontier_idx:
        candidates[graph.out_neighbors(int(u))] = True
    return candidates


def _bucket_begin(engine, bucket: int, lo: float, hi: float,
                  size: int) -> None:
    if engine.obs is not None:
        engine.obs.bucket_begin(bucket, float(lo), float(hi), int(size))


def _bucket_end(engine, bucket: int, waves: int, activations: int) -> None:
    if engine.obs is not None:
        engine.obs.bucket_end(bucket, int(waves), int(activations))


# -- async BFS ---------------------------------------------------------------


@dataclass
class AsyncBFSResult(BFSResult):
    """BFS output plus the bucket scheduler's activation stats."""

    buckets: int = 0
    waves: int = 0
    activations: int = 0


def _async_visit_slot(v, parent, s):
    """Master-side visit under the async schedule: first update wins.

    Unlike the BSP slot there is no global ``level`` scalar — the depth
    is derived from the discovered parent, which the frontier invariant
    (every wave's frontier is a single depth) keeps exact.
    """
    if s.visited[v]:
        return False
    s.visited[v] = True
    s.parent[v] = parent
    s.depth[v] = s.depth[parent] + 1
    return True


class AsyncBFSProgram(VertexProgram):
    """Bucketed BFS: drain pending vertices in depth order.

    Expressed as a :class:`VertexProgram` whose :meth:`step` is one
    *bucket epoch* (drain the minimum-depth bucket completely), so the
    recoverable driver checkpoints exactly at bucket-epoch boundaries —
    the non-BSP schedule the fault subsystem is exercised under.

    A bucket of integer width ``W`` covers depths ``[lo, lo + W)``; the
    seeded offset shifts every boundary by the same amount so the
    partition of depths into buckets depends on the seed.  Within a
    bucket, waves proceed one depth at a time (a discovered vertex at
    depth ``d+1 < hi`` activates in the next wave of the *same* epoch),
    which keeps depths exact for any width and makes the visited/depth
    fixpoint equal to the synchronous run's.
    """

    name = "async-bfs"

    def __init__(self, root: int, width: Optional[float] = None,
                 seed: int = 0) -> None:
        self.root = int(root)
        self.width = width
        self.seed = int(seed)
        self._has_in: Optional[np.ndarray] = None

    def setup(self, engine: BaseEngine, ctx: Dict[str, Any]) -> StateStore:
        _require_async(engine)
        graph = engine.graph
        width = int(_resolve_width("bfs", graph, self.width))
        width = max(1, width)
        rng = np.random.default_rng(self.seed)
        ctx["width"] = width
        ctx["offset"] = int(rng.integers(0, width)) if width > 1 else 0
        ctx["buckets"] = 0
        ctx["waves"] = 0
        ctx["activations"] = 0
        self._has_in = graph.in_degrees() > 0

        s = engine.new_state()
        s.add_array("visited", bool, False)
        s.add_array("expanded", bool, False)
        s.add_array("frontier", bool, False)
        s.add_array("parent", np.int64, -1)
        s.add_array("depth", np.int64, -1)
        s.visited[self.root] = True
        s.parent[self.root] = self.root
        s.depth[self.root] = 0
        engine.sync_state(np.asarray([self.root]), sync_bytes=4)
        return s

    def step(self, engine: BaseEngine, s: StateStore,
             ctx: Dict[str, Any]) -> bool:
        pending = s.visited & ~s.expanded
        if not pending.any():
            return False
        graph = engine.graph
        n = graph.num_vertices
        width, offset = ctx["width"], ctx["offset"]
        bucket = (int(s.depth[pending].min()) + offset) // width
        lo = bucket * width - offset
        hi = lo + width
        _bucket_begin(engine, ctx["buckets"], lo, hi, int(pending.sum()))
        waves = 0
        activations = 0
        while True:
            frontier_idx = np.flatnonzero(pending & (s.depth < hi))
            if frontier_idx.size == 0:
                break
            s.frontier[:] = False
            s.frontier[frontier_idx] = True
            s.expanded[frontier_idx] = True
            waves += 1
            activations += int(frontier_idx.size)
            candidates = _out_candidates(graph, frontier_idx, n)
            candidates &= ~s.visited
            candidates &= self._has_in
            if candidates.any():
                engine.pull(
                    bottom_up_signal,
                    _async_visit_slot,
                    s,
                    candidates,
                    update_bytes=8,
                    sync_bytes=4,
                )
            pending = s.visited & ~s.expanded
        _bucket_end(engine, ctx["buckets"], waves, activations)
        ctx["buckets"] += 1
        ctx["waves"] += waves
        ctx["activations"] += activations
        return True

    def result(self, engine: BaseEngine, s: StateStore,
               ctx: Dict[str, Any]) -> AsyncBFSResult:
        return AsyncBFSResult(
            parent=s.parent.copy(),
            depth=s.depth.copy(),
            visited=s.visited.copy(),
            iterations=ctx["waves"],
            directions=["async"] * ctx["waves"],
            buckets=ctx["buckets"],
            waves=ctx["waves"],
            activations=ctx["activations"],
        )


# -- async SSSP (delta-stepping) --------------------------------------------


@dataclass
class AsyncSSSPResult(SSSPResult):
    """SSSP output plus the bucket scheduler's activation stats."""

    buckets: int = 0
    waves: int = 0
    activations: int = 0


def async_sssp(
    engine: BaseEngine,
    source: int,
    width: Optional[float] = None,
    seed: int = 0,
) -> AsyncSSSPResult:
    """Delta-stepping from ``source``: drain distance buckets in order.

    Buckets cover ``[k*W - offset, (k+1)*W - offset)`` with a seeded
    uniform offset in ``[0, W)``.  Non-negative weights make the drain
    monotone — once a bucket empties, no later relaxation can produce a
    distance below its upper edge — so the converged distances are the
    unique Bellman-Ford fixpoint regardless of seed or width, and
    digest bit-identically to the synchronous run.
    """
    _require_async(engine)
    graph = engine.graph
    if not graph.is_weighted:
        raise GraphError("SSSP needs a weighted graph")
    if graph.num_edges and graph.in_weights.min() < 0:
        raise GraphError("SSSP requires non-negative edge weights")
    n = graph.num_vertices
    width = _resolve_width("sssp", graph, width)
    rng = np.random.default_rng(seed)
    offset = float(rng.uniform(0.0, width))

    s = engine.new_state()
    s.set("dist", np.full(n, np.inf))
    s.dist[source] = 0.0
    s.set("wview", _weight_lookup(graph))
    active = graph.in_degrees() > 0
    pending = np.zeros(n, dtype=bool)
    pending[source] = True
    engine.sync_state(np.asarray([source]), sync_bytes=8)

    limit = 64 + 8 * (n + graph.num_edges)
    buckets = waves = activations = 0
    while pending.any():
        dmin = float(s.dist[pending].min())
        b = math.floor((dmin + offset) / width)
        hi = (b + 1) * width - offset
        while hi <= dmin:  # float edge: dmin landed on a boundary
            b += 1
            hi = (b + 1) * width - offset
        _bucket_begin(engine, buckets, hi - width, hi, int(pending.sum()))
        bucket_waves = bucket_activations = 0
        while True:
            frontier_idx = np.flatnonzero(pending & (s.dist < hi))
            if frontier_idx.size == 0:
                break
            if waves + bucket_waves >= limit:
                raise ConvergenceError(
                    "async SSSP exceeded its wave budget"
                )
            pending[frontier_idx] = False
            bucket_waves += 1
            bucket_activations += int(frontier_idx.size)
            candidates = _out_candidates(graph, frontier_idx, n)
            candidates &= active
            if candidates.any():
                result = engine.pull(
                    sssp_signal,
                    _relax_slot,
                    s,
                    candidates,
                    update_bytes=12,
                    sync_bytes=8,
                )
                if result.any_changed:
                    pending[result.changed] = True
        _bucket_end(engine, buckets, bucket_waves, bucket_activations)
        buckets += 1
        waves += bucket_waves
        activations += bucket_activations

    return AsyncSSSPResult(
        dist=s.dist.copy(),
        iterations=waves,
        buckets=buckets,
        waves=waves,
        activations=activations,
    )


# -- async CC ----------------------------------------------------------------


@dataclass
class AsyncCCResult(CCResult):
    """CC output plus the bucket scheduler's activation stats."""

    buckets: int = 0
    waves: int = 0
    activations: int = 0


def async_cc(
    engine: BaseEngine,
    width: Optional[float] = None,
    seed: int = 0,
) -> AsyncCCResult:
    """Label propagation draining label buckets smallest-first.

    The priority is the vertex's current label: small labels propagate
    first, which front-loads the labels that win anyway.  Monotone —
    every label a drained bucket can ever produce is at least the
    bucket's lower edge, so drained buckets stay drained and the
    converged labels are the unique least fixpoint (equal to the
    synchronous run's for every seed and width).
    """
    _require_async(engine)
    graph = engine.graph
    n = graph.num_vertices
    width = max(1, int(_resolve_width("cc", graph, width)))
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, width)) if width > 1 else 0

    s = engine.new_state()
    s.set("label", np.arange(n, dtype=np.int64))
    active = graph.in_degrees() > 0
    pending = np.ones(n, dtype=bool)

    limit = 64 + 8 * (n + graph.num_edges)
    buckets = waves = activations = 0
    while pending.any():
        lmin = int(s.label[pending].min())
        b = (lmin + offset) // width
        lo = b * width - offset
        hi = lo + width
        _bucket_begin(engine, buckets, lo, hi, int(pending.sum()))
        bucket_waves = bucket_activations = 0
        while True:
            frontier_idx = np.flatnonzero(pending & (s.label < hi))
            if frontier_idx.size == 0:
                break
            if waves + bucket_waves >= limit:
                raise ConvergenceError(
                    "async CC exceeded its wave budget"
                )
            pending[frontier_idx] = False
            bucket_waves += 1
            bucket_activations += int(frontier_idx.size)
            candidates = _out_candidates(graph, frontier_idx, n)
            candidates &= active
            if candidates.any():
                result = engine.pull(
                    cc_signal,
                    _min_slot,
                    s,
                    candidates,
                    update_bytes=8,
                    sync_bytes=8,
                )
                if result.any_changed:
                    pending[result.changed] = True
        _bucket_end(engine, buckets, bucket_waves, bucket_activations)
        buckets += 1
        waves += bucket_waves
        activations += bucket_activations

    return AsyncCCResult(
        label=s.label.copy(),
        iterations=waves,
        buckets=buckets,
        waves=waves,
        activations=activations,
    )


# -- async PageRank (residual push) -----------------------------------------


@dataclass
class AsyncPageRankResult(PageRankResult):
    """PageRank output plus the bucket scheduler's activation stats.

    ``residual`` is the total probability mass still unprocessed at
    termination and ``mass`` the processed mass the ranks were
    normalized by; :attr:`epsilon` bounds ``|rank - pr*|_1``.
    """

    buckets: int = 0
    waves: int = 0
    activations: int = 0
    mass: float = 1.0
    damping: float = 0.85

    @property
    def epsilon(self) -> float:
        """Documented L1 error bound against the exact fixpoint.

        The unprocessed residual ``R`` still owes the unnormalized
        limit at most ``R / (1-d)`` mass, and renormalization can at
        most double the relative effect — hence
        ``2R / ((1-d) * mass)``.
        """
        return (
            2.0 * self.residual / ((1.0 - self.damping) * self.mass)
        )


def _pr_push_signal(u, v, s):
    """Push u's processed residual share to out-neighbor v."""
    return s.push_value[u]


def _pr_accumulate_slot(v, value, s):
    s.residual[v] += value
    return True


def async_pagerank(
    engine: BaseEngine,
    damping: float = 0.85,
    width: Optional[float] = None,
    seed: int = 0,
    stop_mass: float = 1e-8,
    max_waves: int = 100_000,
) -> AsyncPageRankResult:
    """Residual-driven (delta) PageRank draining top priority bands.

    Every vertex starts with residual ``(1-d)/n``.  Each *bucket*
    covers the top band of the current residual distribution: with the
    current maximum ``rmax``, the seeded jitter picks a threshold in
    ``[rmax * 2**-width, rmax)`` and the bucket drains every vertex at
    or above it — their residual moves into their rank and
    ``d/outdeg``-th of it pushes to each out-neighbor's residual.
    Re-tracking the maximum per bucket is what makes this genuine
    priority scheduling: every activation moves near-maximal mass, so
    on skewed graphs hubs are processed many times and the tail a
    handful — the activation savings over the power iteration.

    Mass processed at a dangling vertex simply exits; because uniform
    dangling redistribution is parallel to the uniform teleport vector,
    the fixpoint direction is unchanged and a final renormalization
    (``rank /= rank.sum()``) recovers the standard PageRank exactly —
    without the per-wave all-vertex residual re-seeding that uniform
    redistribution would cost the scheduler.  The run stops once the
    unprocessed mass falls below ``stop_mass``, leaving the ranks
    within :attr:`AsyncPageRankResult.epsilon` of the exact fixpoint
    in L1.
    """
    _require_async(engine)
    graph = engine.graph
    n = graph.num_vertices
    if n == 0:
        return AsyncPageRankResult(np.empty(0), 0, 0.0)
    width = _resolve_width("pagerank", graph, width)
    decay = 2.0 ** (-width)
    rng = np.random.default_rng(seed)

    safe_deg = np.maximum(graph.out_degrees(), 1).astype(np.float64)

    s = engine.new_state()
    s.add_array("rank", np.float64, 0.0)
    s.set("residual", np.full(n, (1.0 - damping) / n))
    s.add_array("push_value", np.float64, 0.0)

    buckets = waves = activations = 0
    while float(s.residual.sum()) > stop_mass:
        rmax = float(s.residual.max())
        theta = rmax * float(decay ** rng.uniform(0.0, 1.0))
        if theta >= rmax:  # float edge: jitter landed on the top
            theta = rmax * decay
        sel = s.residual >= theta
        _bucket_begin(engine, buckets, theta, rmax, int(sel.sum()))
        bucket_waves = bucket_activations = 0
        while sel.any():
            if waves + bucket_waves >= max_waves:
                raise ConvergenceError(
                    "async PageRank exceeded its wave budget"
                )
            s.rank[sel] += s.residual[sel]
            s.push_value[:] = 0.0
            s.push_value[sel] = damping * s.residual[sel] / safe_deg[sel]
            s.residual[sel] = 0.0
            bucket_waves += 1
            bucket_activations += int(sel.sum())
            engine.push(
                _pr_push_signal,
                _pr_accumulate_slot,
                s,
                sel,
                update_bytes=12,
                sync_bytes=8,
            )
            sel = s.residual >= theta
        _bucket_end(engine, buckets, bucket_waves, bucket_activations)
        buckets += 1
        waves += bucket_waves
        activations += bucket_activations

    mass = float(s.rank.sum())
    rank = s.rank.copy()
    if mass > 0:
        rank /= mass
    return AsyncPageRankResult(
        rank=rank,
        iterations=waves,
        residual=float(s.residual.sum()),
        buckets=buckets,
        waves=waves,
        activations=activations,
        mass=mass,
        damping=damping,
    )

"""PageRank: power iteration, and residual push under priority buckets.

Another no-dependency control algorithm: the pull signal folds *all*
in-neighbor contributions (no break), so all engines schedule it the
same way.  Included to show the framework is a general graph engine,
not a dependency-only special case.  The two programs share no loop —
one pulls rank, the other pushes residual — so each is its own
:class:`~repro.fault.program.VertexProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.algorithms.relax import bucket_epoch, bucket_width, schedule_stats
from repro.engine.base import BaseEngine
from repro.engine.state import StateStore
from repro.errors import ConvergenceError
from repro.fault.program import VertexProgram, run_program

__all__ = [
    "pagerank",
    "pagerank_signal",
    "AsyncPageRankProgram",
    "AsyncPageRankResult",
    "PageRankProgram",
    "PageRankResult",
]


def pagerank_signal(v, nbrs, s, emit):
    """Sum the rank mass flowing in from all in-neighbors.

    Written delta-style (emit what *this* scan added): the analyzer
    marks ``total`` as carried data, so under dependency propagation a
    machine resumes from its predecessor's running sum and must not
    re-emit mass the predecessor already reported.
    """
    total = 0.0
    start = total
    for u in nbrs:
        total += s.rank[u] / s.out_degree[u]
    if total > start:
        emit(total - start)


def _accumulate_slot(v, value, s):
    s.incoming[v] += value
    return False


@dataclass
class PageRankResult:
    """Output of a PageRank run."""

    rank: np.ndarray
    iterations: int
    residual: float


class PageRankProgram(VertexProgram):
    """Power iteration; one :meth:`step` is one iteration."""

    def __init__(self, damping: float = 0.85, iterations: int = 20,
                 tolerance: float = 1e-10) -> None:
        self.damping = damping
        self.iterations = iterations
        self.tolerance = tolerance
        self._active: Optional[np.ndarray] = None
        self._dangling: Optional[np.ndarray] = None

    def setup(self, engine: BaseEngine, ctx: Dict[str, Any]) -> StateStore:
        graph = engine.graph
        n = graph.num_vertices
        out_degrees = graph.out_degrees()
        self._active = graph.in_degrees() > 0
        self._dangling = out_degrees == 0
        ctx.update(done=0, residual=0.0)
        s = engine.new_state()
        s.set("rank", np.full(n, 1.0 / max(n, 1)))
        s.set("out_degree", np.maximum(out_degrees, 1).astype(np.float64))
        s.add_array("incoming", np.float64, 0.0)
        return s

    def step(self, engine: BaseEngine, s: StateStore,
             ctx: Dict[str, Any]) -> bool:
        n = s.num_vertices
        if n == 0 or ctx["done"] >= self.iterations:
            return False
        s.incoming[:] = 0.0
        engine.pull(
            pagerank_signal,
            _accumulate_slot,
            s,
            self._active,
            update_bytes=12,
            sync_bytes=8,
        )
        # Dangling mass is redistributed uniformly.
        dangling = float(s.rank[self._dangling].sum())
        new_rank = (1.0 - self.damping) / n + self.damping * (
            s.incoming + dangling / n
        )
        ctx["residual"] = float(np.abs(new_rank - s.rank).sum())
        s.rank[:] = new_rank
        ctx["done"] += 1
        return not ctx["residual"] < self.tolerance

    def result(self, engine: BaseEngine, s: StateStore,
               ctx: Dict[str, Any]) -> PageRankResult:
        return PageRankResult(
            rank=s.rank.copy(), iterations=ctx["done"],
            residual=ctx["residual"],
        )


def pagerank(
    engine: BaseEngine,
    damping: float = 0.85,
    iterations: int = 20,
    tolerance: float = 1e-10,
) -> PageRankResult:
    """Run power iteration for ``iterations`` rounds (or to tolerance)."""
    return run_program(
        PageRankProgram(damping, iterations, tolerance), engine
    )


# -- residual push under priority buckets ------------------------------------


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


class AsyncPageRankProgram(VertexProgram):
    """Residual-driven (delta) PageRank draining top priority bands.

    Every vertex starts with residual ``(1-d)/n``.  One :meth:`step` is
    one *bucket*, covering the top band of the current residual
    distribution: with the current maximum ``rmax``, the seeded jitter
    picks a threshold in ``[rmax * 2**-width, rmax)`` and the bucket
    drains every vertex at or above it — their residual moves into
    their rank and ``d/outdeg``-th of it pushes to each out-neighbor's
    residual.  Re-tracking the maximum per bucket is what makes this
    genuine priority scheduling: every activation moves near-maximal
    mass, so on skewed graphs hubs are processed many times and the
    tail a handful — the activation savings over the power iteration.

    Mass processed at a dangling vertex simply exits; because uniform
    dangling redistribution is parallel to the uniform teleport vector,
    the fixpoint direction is unchanged and a final renormalization
    (``rank /= rank.sum()``) recovers the standard PageRank exactly —
    without the per-wave all-vertex residual re-seeding that uniform
    redistribution would cost the scheduler.  The run stops once the
    unprocessed mass falls below ``stop_mass``, leaving the ranks
    within :attr:`AsyncPageRankResult.epsilon` of the exact fixpoint
    in L1.  The jitter generator is loop-carried, so it lives in
    ``ctx`` and a checkpoint captures its position.
    """

    def __init__(
        self,
        damping: float = 0.85,
        width: Optional[float] = None,
        seed: int = 0,
        stop_mass: float = 1e-8,
        max_waves: int = 100_000,
    ) -> None:
        self.damping = damping
        self.width = width
        self.seed = int(seed)
        self.stop_mass = stop_mass
        self.max_waves = max_waves
        self._safe_deg: Optional[np.ndarray] = None

    def setup(self, engine: BaseEngine, ctx: Dict[str, Any]) -> StateStore:
        graph = engine.graph
        n = graph.num_vertices
        ctx["decay"] = 2.0 ** (-bucket_width(engine, "pagerank", self.width))
        ctx["rng"] = np.random.default_rng(self.seed)
        ctx.update(buckets=0, waves=0, activations=0)
        self._safe_deg = np.maximum(graph.out_degrees(), 1).astype(
            np.float64
        )
        s = engine.new_state()
        s.add_array("rank", np.float64, 0.0)
        s.set("residual", np.full(n, (1.0 - self.damping) / max(n, 1)))
        s.add_array("push_value", np.float64, 0.0)
        return s

    def step(self, engine: BaseEngine, s: StateStore,
             ctx: Dict[str, Any]) -> bool:
        if not float(s.residual.sum()) > self.stop_mass:
            return False
        decay = ctx["decay"]
        rmax = float(s.residual.max())
        theta = rmax * float(decay ** ctx["rng"].uniform(0.0, 1.0))
        if theta >= rmax:  # float edge: jitter landed on the top
            theta = rmax * decay
        sel = s.residual >= theta
        with bucket_epoch(engine, ctx, theta, rmax, int(sel.sum())):
            while sel.any():
                if ctx["waves"] >= self.max_waves:
                    raise ConvergenceError(
                        "async PageRank exceeded its wave budget"
                    )
                s.rank[sel] += s.residual[sel]
                s.push_value[:] = 0.0
                s.push_value[sel] = (
                    self.damping * s.residual[sel] / self._safe_deg[sel]
                )
                s.residual[sel] = 0.0
                ctx["waves"] += 1
                ctx["activations"] += int(sel.sum())
                engine.push(
                    _pr_push_signal,
                    _pr_accumulate_slot,
                    s,
                    sel,
                    update_bytes=12,
                    sync_bytes=8,
                )
                sel = s.residual >= theta
        return True

    def result(self, engine: BaseEngine, s: StateStore,
               ctx: Dict[str, Any]) -> AsyncPageRankResult:
        mass = float(s.rank.sum())
        rank = s.rank.copy()
        if mass > 0:
            rank /= mass
        return AsyncPageRankResult(
            rank=rank,
            iterations=ctx["waves"],
            residual=float(s.residual.sum()),
            mass=mass if s.num_vertices else 1.0,
            damping=self.damping,
            **schedule_stats(ctx),
        )

"""PageRank by power iteration.

Another no-dependency control algorithm: the pull signal folds *all*
in-neighbor contributions (no break), so all engines schedule it the
same way.  Included to show the framework is a general graph engine,
not a dependency-only special case.  It runs synchronously only, and
a run reports no fixpoint digest: the float sum's last bits depend on
the order an engine scans the in-neighbors in, so PageRank has no
cross-engine fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.engine.base import BaseEngine
from repro.engine.state import StateStore
from repro.fault.program import VertexProgram, run_program

__all__ = [
    "pagerank",
    "pagerank_signal",
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

"""Graph-based K-means clustering (paper Figure 3c).

Distances are unweighted shortest-path lengths, so the assignment step
is a multi-source BFS: an unassigned vertex adopts the cluster of the
first assigned neighbor it finds — the loop-carried dependency.  The
paper's four-step loop (choose centers, assign, score, repeat) is
reproduced; re-centering uses the highest-degree member as the new
center, a deterministic 1-median stand-in documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.engine.base import BaseEngine
from repro.engine.state import StateStore
from repro.errors import ConvergenceError, GraphError
from repro.fault.program import VertexProgram, run_program

__all__ = ["kmeans", "kmeans_signal", "KMeansProgram", "KMeansResult"]


def kmeans_signal(v, nbrs, s, emit):
    """Adopt the cluster of the first assigned neighbor."""
    for u in nbrs:
        if s.assigned[u]:
            emit(s.cluster[u])
            break


def _assign_slot(v, value, s):
    if s.assigned[v]:
        return False
    s.assigned[v] = True
    s.cluster[v] = int(value)
    s.dist[v] = s.level
    return True


@dataclass
class KMeansResult:
    """Output of a graph K-means run."""

    cluster: np.ndarray
    distance: np.ndarray
    centers: np.ndarray
    rounds: int
    cost_history: List[float] = field(default_factory=list)

    @property
    def assigned_count(self) -> int:
        return int((self.cluster >= 0).sum())


class KMeansProgram(VertexProgram):
    """Graph K-means; one :meth:`step` is one round (assign layers to
    fixpoint, score, re-center).  The centers and the cost history are
    loop-carried, so they live in ``ctx``; randomness is drawn only in
    :meth:`setup`."""

    def __init__(self, num_clusters: int | None = None, rounds: int = 4,
                 seed: int = 0) -> None:
        self.num_clusters = num_clusters
        self.rounds = rounds
        self.seed = int(seed)
        self._degrees: Optional[np.ndarray] = None

    def setup(self, engine: BaseEngine, ctx: Dict[str, Any]) -> StateStore:
        graph = engine.graph
        n = graph.num_vertices
        if n == 0:
            raise GraphError("kmeans: cannot cluster an empty graph")
        c = self.num_clusters
        if c is None:
            c = max(1, int(np.sqrt(n)))
        if not 1 <= c <= n:
            raise GraphError(f"kmeans: num_clusters {c} not in [1, {n}]")
        rng = np.random.default_rng(self.seed)
        ctx["centers"] = rng.choice(n, size=c, replace=False)
        ctx["cost_history"] = []
        self._degrees = graph.in_degrees()

        s = engine.new_state()
        s.add_array("assigned", bool, False)
        s.add_array("cluster", np.int64, -1)
        s.add_array("dist", np.int64, -1)
        s.add_scalar("level", 0)
        return s

    def step(self, engine: BaseEngine, s: StateStore,
             ctx: Dict[str, Any]) -> bool:
        if len(ctx["cost_history"]) >= self.rounds:
            return False
        centers = ctx["centers"]
        c = centers.size
        s.assigned[:] = False
        s.cluster[:] = -1
        s.dist[:] = -1
        s.assigned[centers] = True
        s.cluster[centers] = np.arange(c)
        s.dist[centers] = 0
        s.level = 0
        engine.sync_state(centers, sync_bytes=8)

        # Assignment: multi-source BFS layers until no vertex adopts.
        for _layer in range(s.num_vertices + 1):
            s.level = s.level + 1
            active = ~s.assigned
            if not active.any():
                break
            result = engine.pull(
                kmeans_signal,
                _assign_slot,
                s,
                active,
                update_bytes=8,
                sync_bytes=4,
            )
            if not result.any_changed:
                break
        else:  # pragma: no cover - defensive
            raise ConvergenceError("K-means assignment failed to converge")

        ctx["cost_history"].append(float(s.dist[s.dist >= 0].sum()))

        # Re-center: highest-degree member (deterministic 1-median proxy).
        new_centers = centers.copy()
        for cid in range(c):
            members = np.flatnonzero(s.cluster == cid)
            if members.size == 0:
                continue
            new_centers[cid] = members[np.argmax(self._degrees[members])]
        # Small all-reduce to agree on the new centers.
        engine.sync_state(new_centers, sync_bytes=8)
        ctx["centers"] = new_centers
        return len(ctx["cost_history"]) < self.rounds

    def result(self, engine: BaseEngine, s: StateStore,
               ctx: Dict[str, Any]) -> KMeansResult:
        return KMeansResult(
            cluster=s.cluster.copy(),
            distance=s.dist.copy(),
            centers=ctx["centers"],
            rounds=self.rounds,
            cost_history=list(ctx["cost_history"]),
        )


def kmeans(
    engine: BaseEngine,
    num_clusters: int | None = None,
    rounds: int = 4,
    seed: int = 0,
) -> KMeansResult:
    """Run graph K-means for a fixed number of rounds.

    ``num_clusters`` defaults to ``sqrt(|V|)`` as in the evaluation
    (Section 7.1).
    """
    return run_program(KMeansProgram(num_clusters, rounds, seed), engine)

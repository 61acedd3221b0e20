"""Single-source shortest paths on weighted graphs.

A no-loop-dependency workload exercising the *weighted* graph substrate
(edge weights in the local CSR views).  The pull signal folds all
in-neighbor relaxations; engines schedule it identically, so SSSP also
serves as a regression control that the SympleGraph fall-back path
handles edge weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.relax import RelaxProgram, Relaxation, schedule_stats
from repro.engine.base import BaseEngine
from repro.errors import GraphError
from repro.fault.program import run_program

__all__ = ["sssp", "sssp_program", "sssp_signal", "SSSPResult"]

INF = np.inf


def sssp_signal(v, nbrs, s, emit):
    """Relax over all in-edges: emit the best achievable distance.

    Weights are looked up by (v, u) pair — machines only scan their
    local slice of v's in-edges, so positional indexing would skew.
    """
    weights = s.wview[v]
    best = s.dist[v]
    for u in nbrs:
        candidate = s.dist[u] + weights.weight_to(u)
        if candidate < best:
            best = candidate
    if best < s.dist[v]:
        # min-fold into an idempotent relax-slot: re-delivering the same
        # distance cannot double-count.
        emit(best)  # repro: noqa[cumulative-emit]


def _relax_slot(v, value, s):
    if value < s.dist[v]:
        s.dist[v] = value
        return True
    return False


@dataclass
class SSSPResult:
    """Output of an SSSP run (the tallies are the bucket scheduler's)."""

    dist: np.ndarray
    iterations: int
    buckets: int = 0
    waves: int = 0
    activations: int = 0

    @property
    def reached(self) -> int:
        return int(np.isfinite(self.dist).sum())


def sssp_program(
    source: int,
    width: float | None = None,
    seed: int = 0,
    max_iterations: int | None = None,
) -> RelaxProgram:
    """SSSP from ``source`` as a :class:`RelaxProgram`.

    ``width=None`` is Bellman-Ford; a width is delta-stepping, draining
    distance buckets in order.  Non-negative weights make the drain
    monotone: once a bucket empties, no later relaxation can produce a
    distance below its upper edge.
    """
    source = int(source)

    def init(engine: BaseEngine, s):
        graph = engine.graph
        if not graph.is_weighted:
            raise GraphError("SSSP needs a weighted graph")
        if graph.num_edges and graph.in_weights.min() < 0:
            raise GraphError("SSSP requires non-negative edge weights")
        s.set("dist", np.full(graph.num_vertices, INF))
        s.dist[source] = 0.0
        s.set("wview", _WeightView(graph))
        engine.sync_state(np.asarray([source]), sync_bytes=8)
        return [source]

    def pack(s, iterations, ctx) -> SSSPResult:
        return SSSPResult(s.dist.copy(), iterations, **schedule_stats(ctx))

    return RelaxProgram(
        Relaxation(
            "sssp", init, "dist", sssp_signal, _relax_slot, pack,
            update_bytes=12, sync_bytes=8, max_waves=max_iterations,
        ),
        width,
        seed,
    )


def sssp(
    engine: BaseEngine,
    source: int,
    max_iterations: int | None = None,
) -> SSSPResult:
    """Bellman-Ford from ``source``; requires non-negative edge weights."""
    return run_program(
        sssp_program(source, max_iterations=max_iterations), engine
    )


class _WeightView:
    """Cached per-destination (u -> weight) lookup tables."""

    __slots__ = ("_graph", "_cache")

    def __init__(self, graph) -> None:
        self._graph = graph
        self._cache = {}

    def __getitem__(self, v: int) -> "_DestWeights":
        table = self._cache.get(v)
        if table is None:
            table = _DestWeights(self._graph, v)
            self._cache[v] = table
        return table


class _DestWeights:
    __slots__ = ("_index",)

    def __init__(self, graph, v: int) -> None:
        weights = graph.in_edge_weights(v)
        neighbors = graph.in_neighbors(v)
        # parallel edges collapse to their minimum weight, which is the
        # only one a shortest path can use
        index: dict = {}
        for u, w in zip(neighbors, weights):
            u, w = int(u), float(w)
            if u not in index or w < index[u]:
                index[u] = w
        self._index = index

    def weight_to(self, u: int) -> float:
        return self._index[u]

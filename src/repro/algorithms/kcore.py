"""K-core decomposition.

Two algorithms, matching the paper's evaluation:

* :func:`kcore` — the iterative algorithm of Figure 3b: every round,
  each still-active vertex counts its active neighbors, breaking as
  soon as the count saturates at K (loop-carried data + control
  dependency: the running count must cross machine boundaries).
  Vertices whose count stays below K are removed; repeat to fixpoint.
* :func:`kcore_peel` — the linear-time peeling algorithm (Matula &
  Beck), a lean single-machine code with no loop-carried dependency;
  the parenthesized comparison numbers in Tables 2/4.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.engine.base import BaseEngine
from repro.engine.state import StateStore
from repro.errors import ConvergenceError, GraphError
from repro.fault.program import VertexProgram, run_program
from repro.graph.csr import CSRGraph, is_integer
from repro.runtime.cost_model import SINGLE_THREAD_COST, CostModel

__all__ = [
    "check_k",
    "kcore",
    "kcore_signal",
    "kcore_peel",
    "coreness",
    "KCoreResult",
    "PeelResult",
    "KCoreProgram",
]


def check_k(k) -> int:
    """``k`` as an int, if it is an integer >= 1; a bool, float or
    string is not one, so no entry point truncates a k.  Anything else
    raises :class:`GraphError`."""
    if not is_integer(k) or k < 1:
        raise GraphError(f"kcore: k must be >= 1 (an integer), got {k!r}")
    return int(k)


def kcore_signal(v, nbrs, s, emit):
    """Count active neighbors, saturating at K (the break)."""
    cnt = 0
    start = cnt
    for u in nbrs:
        if s.active[u]:
            cnt += 1
            if cnt >= s.k:
                break
    if cnt > start:
        emit(cnt - start)


def _count_slot(v, value, s):
    s.count[v] += int(value)
    return False  # removals are decided (and synced) in the outer loop


@dataclass
class KCoreResult:
    """Output of the iterative K-core computation."""

    in_core: np.ndarray
    rounds: int
    k: int

    @property
    def size(self) -> int:
        return int(self.in_core.sum())


class KCoreProgram(VertexProgram):
    """Iterative K-core as a resumable superstep loop."""

    name = "kcore"

    def __init__(self, k: int, max_rounds: int | None = None) -> None:
        self.k = check_k(k)
        self.max_rounds = max_rounds

    def setup(self, engine: BaseEngine, ctx: Dict[str, Any]) -> StateStore:
        n = engine.graph.num_vertices
        ctx["limit"] = (
            self.max_rounds if self.max_rounds is not None else n + 1
        )
        ctx["rounds"] = 0
        s = engine.new_state()
        s.add_array("active", bool, True)
        s.add_array("count", np.int64, 0)
        s.add_scalar("k", self.k)
        return s

    def step(
        self, engine: BaseEngine, s: StateStore, ctx: Dict[str, Any]
    ) -> bool:
        if ctx["rounds"] >= ctx["limit"]:
            raise ConvergenceError("K-core exceeded its round budget")
        s.count[:] = 0
        # Control-only dependency: partial counts sum at the master
        # regardless, so only the saturation break needs to travel —
        # the reference implementation's one-bit dependency message.
        engine.pull(
            kcore_signal,
            _count_slot,
            s,
            s.active.copy(),
            update_bytes=8,
            sync_bytes=0,
            dep_data_bytes=4,
            share_dep_data=False,
        )
        removed = np.flatnonzero(s.active & (s.count < self.k))
        ctx["rounds"] += 1
        if removed.size == 0:
            return False
        s.active[removed] = False
        engine.sync_state(removed, sync_bytes=4)
        return True

    def result(
        self, engine: BaseEngine, s: StateStore, ctx: Dict[str, Any]
    ) -> KCoreResult:
        return KCoreResult(
            in_core=s.active.copy(), rounds=ctx["rounds"], k=self.k
        )


def kcore(
    engine: BaseEngine,
    k: int,
    max_rounds: int | None = None,
) -> KCoreResult:
    """Iterative K-core on a symmetric graph."""
    return run_program(KCoreProgram(k, max_rounds), engine)


@dataclass
class PeelResult:
    """Output of the linear peeling algorithm."""

    in_core: np.ndarray
    k: int
    edges_touched: int
    simulated_time: float

    @property
    def size(self) -> int:
        return int(self.in_core.sum())


def kcore_peel(
    graph: CSRGraph,
    k: int,
    cost_model: CostModel = SINGLE_THREAD_COST,
) -> PeelResult:
    """Linear-time single-machine K-core by repeated peeling.

    Runs in O(V + E): each removal scans the removed vertex's edges
    once.  Timed with the single-thread cost preset (the paper's
    comparison code has no distribution overhead at all).
    """
    k = check_k(k)
    degree = graph.in_degrees().copy()
    active = np.ones(graph.num_vertices, dtype=bool)
    queue = deque(np.flatnonzero(degree < k).tolist())
    in_queue = np.zeros(graph.num_vertices, dtype=bool)
    in_queue[degree < k] = True

    edges_touched = 0
    while queue:
        v = queue.popleft()
        if not active[v]:
            continue
        active[v] = False
        for u in graph.in_neighbors(v):
            u = int(u)
            edges_touched += 1
            if not active[u]:
                continue
            degree[u] -= 1
            if degree[u] < k and not in_queue[u]:
                in_queue[u] = True
                queue.append(u)

    # One full edge scan for degree initialization, plus the edges of
    # every peeled vertex, plus per-vertex bucket maintenance.
    simulated_time = (
        (graph.num_edges + edges_touched) * cost_model.edge_cost
        + graph.num_vertices * cost_model.vertex_cost
    ) * cost_model.compute_scale
    return PeelResult(
        in_core=active,
        k=k,
        edges_touched=edges_touched,
        simulated_time=simulated_time,
    )


def coreness(graph: CSRGraph) -> np.ndarray:
    """Core number of every vertex (Matula-Beck bucket peeling).

    The full decomposition behind :func:`kcore_peel`: vertex ``v``'s
    core number is the largest K such that ``v`` belongs to the K-core.
    Runs in O(V + E) using bucketed removal in non-decreasing degree
    order.
    """
    n = graph.num_vertices
    degree = graph.in_degrees().copy()
    # Self-loops do not support membership in any core (standard
    # convention, matching networkx.core_number).
    for v in range(n):
        loops = int(np.count_nonzero(graph.in_neighbors(v) == v))
        if loops:
            degree[v] -= loops
    core = np.zeros(n, dtype=np.int64)
    if n == 0:
        return core

    max_degree = int(degree.max(initial=0))
    # bucket sort vertices by current degree
    bins = np.zeros(max_degree + 2, dtype=np.int64)
    for d in degree:
        bins[d + 1] += 1
    np.cumsum(bins, out=bins)
    position = np.zeros(n, dtype=np.int64)
    order = np.zeros(n, dtype=np.int64)
    fill = bins[:-1].copy()
    for v in range(n):
        position[v] = fill[degree[v]]
        order[position[v]] = v
        fill[degree[v]] += 1
    bin_start = bins[:-1].copy()

    removed = np.zeros(n, dtype=bool)
    for i in range(n):
        v = int(order[i])
        core[v] = degree[v]
        removed[v] = True
        for u in graph.in_neighbors(v):
            u = int(u)
            if u == v or removed[u] or degree[u] <= degree[v]:
                continue
            # swap u to the front of its degree bucket, then shrink it
            du = int(degree[u])
            pu = int(position[u])
            pw = int(bin_start[du])
            w = int(order[pw])
            if u != w:
                order[pu], order[pw] = w, u
                position[u], position[w] = pw, pu
            bin_start[du] += 1
            degree[u] -= 1
    return core

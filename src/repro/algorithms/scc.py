"""Strongly connected components on directed graphs.

The paper motivates K-core as "a subroutine widely used in strongly
connected component algorithms" (Section 7.1, citing Hong et al.).
This module closes the loop: a distributed Forward-Backward SCC with
trimming, whose reachability phases are bottom-up pulls with a
loop-carried ``break`` — i.e. the paper's optimization accelerates SCC
detection end to end.

Algorithm (FW-BW-Trim):

1. *Trim* — an active vertex with no active in-neighbor or no active
   out-neighbor is a singleton SCC; repeat until stable.
2. Pick a pivot from the largest remaining active set; compute the
   forward reachable set F (BFS over out-edges) and backward reachable
   set B (BFS over the transpose).  F intersect B is one SCC.
3. Recurse on the three carve-outs F\\B, B\\F and the untouched rest.

Both BFS phases run on distributed engines (forward on the graph,
backward on its transpose) so every scan and byte is metered; the
transpose engine's counters are merged into the primary engine's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.engine import make_engine
from repro.engine.base import BaseEngine
from repro.errors import ConvergenceError
from repro.graph.csr import CSRGraph

__all__ = ["scc", "scc_reach_signal", "SCCResult"]


def scc_reach_signal(v, nbrs, s, emit):
    """Bottom-up reachability step restricted to the current subset."""
    for u in nbrs:
        if s.reached[u] and s.subset[u]:
            emit(u)
            break


def _reach_slot(v, value, s):
    if s.reached[v]:
        return False
    s.reached[v] = True
    return True


@dataclass
class SCCResult:
    """Output of an SCC run."""

    component: np.ndarray  # representative vertex id per vertex
    rounds: int

    @property
    def num_components(self) -> int:
        return int(np.unique(self.component).size)


def _reachable(
    engine: BaseEngine, pivot: int, subset: np.ndarray
) -> np.ndarray:
    """Vertices in ``subset`` reachable from ``pivot`` along the edges
    of the engine's graph, by bottom-up BFS layers: a pull marks ``v``
    once an in-neighbour of ``v`` is reached.  On the graph this is the
    pivot's forward set; on its transpose, the backward set."""
    graph = engine.graph
    s = engine.new_state()
    s.set("subset", subset)
    s.add_array("reached", bool, False)
    s.reached[pivot] = True
    engine.sync_state(np.asarray([pivot]), sync_bytes=4)

    while True:
        active = subset & ~s.reached
        if not active.any():
            break
        result = engine.pull(
            scc_reach_signal,
            _reach_slot,
            s,
            active,
            update_bytes=8,
            sync_bytes=4,
        )
        if not result.any_changed:
            break
    return s.reached & subset


def scc(
    graph: CSRGraph,
    engine_kind: str = "symple",
    num_machines: int = 8,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    collect_metrics: Optional[BaseEngine] = None,
) -> SCCResult:
    """Compute SCCs of a directed graph on simulated engines.

    Returns a component array where each vertex maps to its component's
    representative (the smallest member id).  Pass ``collect_metrics``
    (any engine) to merge all traversal/communication counters into it.
    """
    n = graph.num_vertices
    limit = max_rounds if max_rounds is not None else n + 1

    src, dst = graph.edge_array()
    transpose = CSRGraph(n, dst, src)
    # A pull scans in-edges, so an engine on the graph sweeps the
    # forward set (``v`` is reached through an edge ``u -> v``) and one
    # on the transpose the backward set (``v`` reaches the pivot
    # through an edge ``v -> u``).
    bwd = make_engine(engine_kind, transpose, num_machines)
    fwd = make_engine(engine_kind, graph, num_machines)

    component = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    rng = np.random.default_rng(seed)

    rounds = 0
    worklist: List[np.ndarray] = [active]
    while worklist:
        if rounds >= limit:
            raise ConvergenceError("SCC exceeded its round budget")
        rounds += 1
        subset = worklist.pop()
        subset = subset & (component < 0)
        if not subset.any():
            continue

        # 1. Trim trivial SCCs until stable.
        while True:
            members = np.flatnonzero(subset)
            if members.size == 0:
                break
            has_in = np.array(
                [subset[graph.in_neighbors(int(v))].any() for v in members]
            )
            has_out = np.array(
                [subset[graph.out_neighbors(int(v))].any() for v in members]
            )
            trivial = members[~(has_in & has_out)]
            if trivial.size == 0:
                break
            component[trivial] = trivial
            subset[trivial] = False
        members = np.flatnonzero(subset)
        if members.size == 0:
            continue
        if members.size == 1:
            component[members] = members
            continue

        # 2. Pivot and the two reachability sweeps.
        pivot = int(rng.choice(members))
        backward = _reachable(bwd, pivot, subset)
        forward = _reachable(fwd, pivot, subset)
        core = forward & backward
        rep = int(np.flatnonzero(core).min())
        component[core] = rep

        # 3. Recurse on the three remainders.
        for remainder in (backward & ~core, forward & ~core, subset & ~forward & ~backward):
            if remainder.any():
                worklist.append(remainder)

    if collect_metrics is not None:
        collect_metrics.counters.merge(bwd.counters)
        collect_metrics.counters.merge(fwd.counters)

    return SCCResult(component=component, rounds=rounds)

"""Breadth-first search: top-down, bottom-up, and direction-optimizing.

Bottom-up BFS (Beamer et al.) is the paper's flagship loop-carried
dependency example (Figure 1): an unvisited vertex scans its incoming
neighbors and stops at the *first* one found in the frontier.  The
evaluation runs the adaptive direction-switching variant (Section 7.1),
reproduced here with the standard alpha/beta heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.algorithms.relax import RelaxProgram, Relaxation, schedule_stats
from repro.engine.base import BaseEngine
from repro.engine.state import StateStore
from repro.errors import ConvergenceError
from repro.fault.program import VertexProgram, run_program

__all__ = [
    "bfs",
    "bottom_up_signal",
    "AsyncBFSProgram",
    "BFSResult",
    "BFSProgram",
]


def bottom_up_signal(v, nbrs, s, emit):
    """Bottom-up step: stop at the first in-neighbor in the frontier."""
    for u in nbrs:
        if s.frontier[u]:
            emit(u)
            break


def _visit_slot(v, parent, s):
    """Master-side visit: first update wins."""
    if s.visited[v]:
        return False
    s.visited[v] = True
    s.parent[v] = parent
    s.depth[v] = s.level
    s.next_frontier[v] = True
    return True


def _push_signal(u, v, s):
    """Top-down step: offer u as parent to each unvisited out-neighbor."""
    if s.visited[v]:
        return None
    return u


@dataclass
class BFSResult:
    """Output of a BFS run (the tallies are the bucket scheduler's)."""

    parent: np.ndarray
    depth: np.ndarray
    visited: np.ndarray
    iterations: int
    directions: List[str] = field(default_factory=list)
    buckets: int = 0
    waves: int = 0
    activations: int = 0

    @property
    def reached(self) -> int:
        return int(self.visited.sum())


def _root_state(engine: BaseEngine, s: StateStore, root: int) -> None:
    """Declare the traversal arrays with ``root`` visited at depth 0."""
    s.add_array("visited", bool, False)
    s.add_array("frontier", bool, False)
    s.add_array("parent", np.int64, -1)
    s.add_array("depth", np.int64, -1)
    s.visited[root] = True
    s.parent[root] = root
    s.depth[root] = 0
    engine.sync_state(np.asarray([root]), sync_bytes=4)


class BFSProgram(VertexProgram):
    """Direction-optimizing BFS as a resumable superstep loop.

    Everything mutable lives in the :class:`StateStore` or ``ctx``
    (``iterations``, ``directions``, ``running_pull``, ``limit``) so a
    checkpoint captures the full loop state; the instance itself holds
    only configuration and the read-only out-degree array.
    """

    name = "bfs"

    def __init__(
        self,
        root: int,
        mode: str = "adaptive",
        alpha: float = 15.0,
        beta: float = 18.0,
        max_iterations: Optional[int] = None,
    ) -> None:
        if mode not in ("adaptive", "topdown", "bottomup"):
            raise ValueError(f"unknown BFS mode {mode!r}")
        self.root = int(root)
        self.mode = mode
        self.alpha = alpha
        self.beta = beta
        self.max_iterations = max_iterations
        self._out_degrees: Optional[np.ndarray] = None

    def setup(self, engine: BaseEngine, ctx: Dict[str, Any]) -> StateStore:
        graph = engine.graph
        n = graph.num_vertices
        self._out_degrees = graph.out_degrees()
        ctx["limit"] = (
            self.max_iterations if self.max_iterations is not None else n + 1
        )
        ctx["iterations"] = 0
        ctx["directions"] = []
        ctx["running_pull"] = False

        s = engine.new_state()
        _root_state(engine, s, self.root)
        s.add_array("next_frontier", bool, False)
        s.add_scalar("level", 0)
        s.frontier[self.root] = True
        return s

    def step(
        self, engine: BaseEngine, s: StateStore, ctx: Dict[str, Any]
    ) -> bool:
        if not s.frontier.any():
            return False
        if ctx["iterations"] >= ctx["limit"]:
            raise ConvergenceError("BFS exceeded its iteration budget")
        s.level = s.level + 1

        direction = _pick_direction(
            self.mode,
            s,
            self._out_degrees,
            self.alpha,
            self.beta,
            ctx["running_pull"],
        )
        ctx["running_pull"] = direction == "pull"
        ctx["directions"].append(direction)

        if direction == "pull":
            active = ~s.visited
            result = engine.pull(
                bottom_up_signal,
                _visit_slot,
                s,
                active,
                update_bytes=8,
                sync_bytes=4,
            )
        else:
            result = engine.push(
                _push_signal,
                _visit_slot,
                s,
                s.frontier,
                update_bytes=8,
                sync_bytes=4,
            )

        s.frontier[:] = s.next_frontier
        s.next_frontier[:] = False
        ctx["iterations"] += 1
        return bool(result.any_changed)

    def result(
        self, engine: BaseEngine, s: StateStore, ctx: Dict[str, Any]
    ) -> BFSResult:
        return BFSResult(
            parent=s.parent.copy(),
            depth=s.depth.copy(),
            visited=s.visited.copy(),
            iterations=ctx["iterations"],
            directions=list(ctx["directions"]),
        )


def bfs(
    engine: BaseEngine,
    root: int,
    mode: str = "adaptive",
    alpha: float = 15.0,
    beta: float = 18.0,
    max_iterations: Optional[int] = None,
) -> BFSResult:
    """Run BFS from ``root`` on a distributed engine.

    ``mode`` is ``"adaptive"`` (direction-optimizing, the evaluation's
    configuration), ``"topdown"``, or ``"bottomup"``.
    """
    return run_program(
        BFSProgram(root, mode, alpha, beta, max_iterations), engine
    )


def _async_visit_slot(v, parent, s):
    """Master-side visit under the bucket schedule: first update wins.

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


def _publish_frontier(s, frontier):
    s.frontier[:] = False
    s.frontier[frontier] = True


class AsyncBFSProgram(RelaxProgram):
    """Bucketed BFS: drain pending vertices in depth order.

    A bucket of integer width ``W`` covers depths ``[lo, lo + W)``.
    Within a bucket, waves proceed one depth at a time (a discovered
    vertex at depth ``d+1 < hi`` activates in the next wave of the
    *same* epoch), which keeps depths exact for any width and makes the
    visited/depth fixpoint equal to the synchronous run's.
    """

    def __init__(self, root: int, width: float = 1.0, seed: int = 0) -> None:
        root = int(root)

        def init(engine: BaseEngine, s):
            _root_state(engine, s, root)
            return [root]

        def pack(s, iterations, ctx) -> BFSResult:
            return BFSResult(
                parent=s.parent.copy(),
                depth=s.depth.copy(),
                visited=s.visited.copy(),
                iterations=iterations,
                directions=["async"] * iterations,
                **schedule_stats(ctx),
            )

        super().__init__(
            Relaxation(
                "bfs", init, "depth", bottom_up_signal, _async_visit_slot,
                pack, sync_bytes=4, eligible=lambda s: ~s.visited,
                prepare=_publish_frontier,
            ),
            width,
            seed,
        )


def _pick_direction(
    mode: str,
    s,
    out_degrees: np.ndarray,
    alpha: float,
    beta: float,
    running_pull: bool,
) -> str:
    """Beamer's direction heuristic."""
    if mode == "topdown":
        return "push"
    if mode == "bottomup":
        return "pull"
    if not running_pull:
        # degree sums as dot products with the masks: exact integers,
        # no gathered copy
        m_f = int(out_degrees @ s.frontier)
        m_u = int(out_degrees @ ~s.visited)
        return "pull" if m_f > m_u / alpha else "push"
    n_f = np.count_nonzero(s.frontier)
    return "push" if n_f < len(out_degrees) / beta else "pull"

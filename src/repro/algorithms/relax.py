"""One relaxation program, two schedules.

The monotone label-correcting loop — keep a *pending* set of vertices
whose value changed, pull over their out-neighbours, mark whatever the
pull changed as pending again — is all of SSSP, connected components,
the incremental BFS/CC repair and bucketed BFS.  :class:`RelaxProgram`
is that loop, over an immutable :class:`Relaxation` describing the
problem; the *schedule* is its only other input:

* ``width=None`` — BSP: every pending vertex activates each wave, and
  one :meth:`~RelaxProgram.step` is one superstep;
* a ``width`` — ASYMP-style priority buckets: pending vertices drain in
  priority order (BFS depth, tentative distance, component label).  A
  bucket covers ``[k*W - offset, (k+1)*W - offset)`` with a seeded
  offset in ``[0, W)`` (the randomized delta-stepping trick, so the
  seed moves the schedule); one ``step`` is one *bucket epoch*,
  bracketed by ``bucket_begin``/``bucket_end`` observability events.

BSP is the one-unbounded-bucket case of the bucket loop — the same
waves, phases, bytes and simulated time — cut into one step per wave so
a checkpoint can land between any two.  Each wave is one engine pull,
hence one :class:`~repro.runtime.counters.IterationRecord`; the
SympleGraph engine rebuilds its circulant dependency bitmaps per pull,
so dependency notifications are evaluated at activation time under
either schedule.  The relaxations have a unique fixpoint, so every
schedule, seed and width converges to the same answer, and a fixed
(seed, width) is bit-identical across executors.  ``dgalois`` takes no
buckets: its Gluon-style reduce/broadcast only synchronizes replicas at
phase granularity over a vertex cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.engine import ASYNC_ENGINES
from repro.engine.base import BaseEngine
from repro.engine.state import StateStore
from repro.errors import ConvergenceError, EngineError
from repro.fault.program import VertexProgram
from repro.graph.csr import row_positions

__all__ = [
    "RelaxProgram",
    "Relaxation",
    "bucket_width",
    "default_bucket_width",
    "flat_neighbors",
    "out_neighbor_mask",
    "schedule_stats",
]


def flat_neighbors(indptr, indices, vertices: np.ndarray):
    """The CSR neighbour segments of ``vertices``, concatenated.

    Returns ``(lengths, flat)``: each listed vertex's segment length
    and the neighbour ids back to back in listing order, so
    ``np.repeat(vertices, lengths)`` names every flat entry's owner.
    """
    lengths, positions = row_positions(indptr, vertices)
    return lengths, indices[positions]


def out_neighbor_mask(graph, vertices: np.ndarray) -> np.ndarray:
    """Boolean mask over all vertices: the out-neighbours of ``vertices``."""
    mask = np.zeros(graph.num_vertices, dtype=bool)
    _, flat = flat_neighbors(graph.out_indptr, graph.out_indices, vertices)
    mask[flat] = True
    return mask


def default_bucket_width(algorithm: str, graph) -> float:
    """The bucket width a ``RunConfig(mode="async")`` run uses.

    Deterministic functions of the graph alone, so the default stays
    inside the fixed-(seed, width) reproducibility contract: ``sssp``
    takes 4x the mean edge weight (the delta-stepping rule of thumb;
    1.0 on an edgeless graph), ``cc`` one eighth of the label space,
    and ``bfs`` one depth level.
    """
    if algorithm == "sssp":
        weighted = graph.is_weighted and graph.num_edges
        mean = float(graph.in_weights.mean()) if weighted else 0.0
        return 4.0 * mean if mean > 0 else 1.0
    if algorithm == "cc":
        return float(max(1, graph.num_vertices // 8))
    return 1.0


def bucket_width(engine: BaseEngine, algorithm: str,
                 width: Optional[float]) -> float:
    """The validated width of a bucket schedule on ``engine``
    (``None`` picks the algorithm's default)."""
    if not engine.supports_async:
        raise EngineError(
            f"the {engine.kind!r} engine does not support mode='async'; "
            f"bucket scheduling runs on {ASYNC_ENGINES}"
        )
    if width is None:
        return default_bucket_width(algorithm, engine.graph)
    if not width > 0:
        raise EngineError(f"a bucket width must be > 0, got {width}")
    return float(width)


def schedule_stats(ctx: Dict[str, Any]) -> Dict[str, int]:
    """The scheduler tallies a bucketed result reports."""
    return {key: ctx[key] for key in ("buckets", "waves", "activations")}


@dataclass(frozen=True)
class Relaxation:
    """Immutable description of one monotone label-correcting problem.

    ``init(engine, state)`` declares and seeds the state arrays (and
    any initial ``sync_state``) and returns the initially pending
    vertices; ``priority`` names the array the buckets order by;
    ``pack(state, iterations, ctx)`` builds the result.
    ``eligible(state)`` narrows a wave's candidates beyond "has
    in-edges"; ``prepare(state, frontier)`` runs before a wave's pull;
    ``first`` is an explicit candidate mask for the first wave, for
    repairs that start at the invalidated vertices themselves rather
    than at anybody's out-neighbours.
    """

    name: str
    init: Callable[[BaseEngine, StateStore], Any]
    priority: str
    signal: Callable
    slot: Callable
    pack: Callable[[StateStore, int, Dict[str, Any]], Any]
    update_bytes: int = 8
    sync_bytes: int = 8
    eligible: Optional[Callable[[StateStore], np.ndarray]] = None
    prepare: Optional[Callable[[StateStore, np.ndarray], None]] = None
    first: Optional[np.ndarray] = None
    max_waves: Optional[int] = None


class RelaxProgram(VertexProgram):
    """The label-correcting loop under a BSP or a bucket schedule.

    Everything loop-carried lives where a checkpoint captures it: the
    ``pending`` set is a state array; the bucket offset and the
    wave/pull/bucket/activation tallies are in ``ctx``.
    """

    def __init__(self, relaxation: Relaxation,
                 width: Optional[float] = None, seed: int = 0) -> None:
        self.relaxation = relaxation
        self.width = width
        self.seed = int(seed)
        self._pullable: Optional[np.ndarray] = None

    def setup(self, engine: BaseEngine, ctx: Dict[str, Any]) -> StateStore:
        r = self.relaxation
        graph = engine.graph
        n = graph.num_vertices
        ctx.update(waves=0, pulls=0, buckets=0, activations=0, limit=n + 1)
        if self.width is not None:
            width = bucket_width(engine, r.name, self.width)
            ctx["limit"] = 64 + 8 * (n + graph.num_edges)
        if r.max_waves is not None:
            ctx["limit"] = r.max_waves
        self._pullable = graph.in_degrees() > 0
        s = engine.new_state()
        pending = r.init(engine, s)
        s.add_array("pending", bool, False)
        s.pending[pending] = True
        if self.width is not None:
            rng = np.random.default_rng(self.seed)
            if np.issubdtype(s.array(r.priority).dtype, np.integer):
                width = max(1, int(width))
                offset = int(rng.integers(0, width)) if width > 1 else 0
            else:
                offset = float(rng.uniform(0.0, width))
            ctx.update(width=width, offset=offset)
        return s

    def step(self, engine: BaseEngine, s: StateStore,
             ctx: Dict[str, Any]) -> bool:
        # state fields are re-read after every pull: the process
        # executor rebinds them to shared-memory views on first contact
        if not s.pending.any():
            return False
        if self.width is None:
            self._wave(engine, s, ctx, np.flatnonzero(s.pending))
            return True
        priority = self.relaxation.priority
        width, offset = ctx["width"], ctx["offset"]
        low = s.array(priority)[s.pending].min().item()
        b = math.floor((low + offset) / width)
        hi = (b + 1) * width - offset
        while hi <= low:  # float edge: low landed on a boundary
            b += 1
            hi = (b + 1) * width - offset
        bucket, waves, activations = (
            ctx["buckets"], ctx["waves"], ctx["activations"]
        )
        if engine.obs is not None:
            engine.obs.emit("bucket_begin", bucket=int(bucket),
                            lo=float(hi - width), hi=float(hi),
                            size=int(s.pending.sum()))
        while True:
            frontier = np.flatnonzero(s.pending & (s.array(priority) < hi))
            if frontier.size == 0:
                break
            self._wave(engine, s, ctx, frontier)
        if engine.obs is not None:
            engine.obs.emit("bucket_end", bucket=int(bucket),
                            waves=int(ctx["waves"] - waves),
                            activations=int(ctx["activations"] - activations))
        ctx["buckets"] += 1
        return True

    def _wave(self, engine: BaseEngine, s: StateStore,
              ctx: Dict[str, Any], frontier: np.ndarray) -> None:
        """Activate ``frontier``: one pull over its eligible
        out-neighbours; whatever the pull changes becomes pending."""
        r = self.relaxation
        if ctx["waves"] >= ctx["limit"]:
            raise ConvergenceError(f"{r.name} exceeded its wave budget")
        s.pending[frontier] = False
        if r.prepare is not None:
            r.prepare(s, frontier)
        if r.first is not None and ctx["waves"] == 0:
            candidates = r.first & self._pullable
        else:
            candidates = out_neighbor_mask(engine.graph, frontier)
            candidates &= self._pullable
        if r.eligible is not None:
            candidates &= r.eligible(s)
        ctx["waves"] += 1
        ctx["activations"] += int(frontier.size)
        if candidates.any():
            result = engine.pull(
                r.signal, r.slot, s, candidates,
                update_bytes=r.update_bytes, sync_bytes=r.sync_bytes,
            )
            ctx["pulls"] += 1
            s.pending[result.changed] = True

    def result(self, engine: BaseEngine, s: StateStore,
               ctx: Dict[str, Any]):
        # a BSP run reports its supersteps (pulls); a bucketed run its
        # activation waves, including the ones that found no candidate
        iterations = ctx["pulls" if self.width is None else "waves"]
        return self.relaxation.pack(s, iterations, ctx)

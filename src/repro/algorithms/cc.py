"""Connected components by label propagation.

A *control* algorithm with no loop-carried dependency: every neighbor
must be examined to compute the local minimum label, so the analyzer
finds nothing to instrument and SympleGraph automatically degenerates
to Gemini's schedule (Section 5.1: "Gemini can be considered as a
special case without dependency communication").  Used by tests to
verify the no-dependency fall-back path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.relax import RelaxProgram, Relaxation, schedule_stats
from repro.engine.base import BaseEngine
from repro.fault.program import run_program

__all__ = ["connected_components", "cc_program", "cc_signal", "CCResult"]


def cc_signal(v, nbrs, s, emit):
    """Emit the smallest neighbor label if it beats the current one."""
    best = s.label[v]
    for u in nbrs:
        if s.label[u] < best:
            best = s.label[u]
    if best < s.label[v]:
        # min-fold into an idempotent min-slot: re-delivering the same
        # label is harmless, so the double-count hazard does not apply.
        emit(best)  # repro: noqa[cumulative-emit]


def _min_slot(v, value, s):
    if value < s.label[v]:
        s.label[v] = value
        return True
    return False


@dataclass
class CCResult:
    """Output of a connected-components run (the tallies are the
    bucket scheduler's)."""

    label: np.ndarray
    iterations: int
    buckets: int = 0
    waves: int = 0
    activations: int = 0

    @property
    def num_components(self) -> int:
        return int(np.unique(self.label).size)


def cc_program(
    width: float | None = None,
    seed: int = 0,
    max_iterations: int | None = None,
) -> RelaxProgram:
    """Label propagation as a :class:`RelaxProgram`.

    Under a bucket ``width`` the priority is the vertex's current
    label: small labels propagate first, which front-loads the labels
    that win anyway.  Every label a drained bucket can ever produce is
    at least the bucket's lower edge, so drained buckets stay drained.
    """

    def init(engine: BaseEngine, s):
        s.set("label", np.arange(engine.graph.num_vertices, dtype=np.int64))
        return slice(None)  # every vertex starts pending

    def pack(s, iterations, ctx) -> CCResult:
        return CCResult(s.label.copy(), iterations, **schedule_stats(ctx))

    return RelaxProgram(
        Relaxation(
            "cc", init, "label", cc_signal, _min_slot, pack,
            max_waves=max_iterations,
        ),
        width,
        seed,
    )


def connected_components(
    engine: BaseEngine, max_iterations: int | None = None
) -> CCResult:
    """Label propagation to fixpoint on a symmetric graph."""
    return run_program(cc_program(max_iterations=max_iterations), engine)

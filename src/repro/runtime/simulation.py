"""Independent discrete-event validation of the circulant timing model.

:meth:`CostModel.circulant_timeline` computes step timings with a
closed-form recursion.  This module re-derives the same quantity from
first principles with a heap-based event simulator: machines are
resources, dependency messages are events with explicit send/arrival
times, and steps begin when *both* the machine is free and the awaited
dependency has arrived.  The test-suite asserts the two implementations
agree exactly — each acts as an executable specification of the other
(the recursion can silently drift when edited; the simulator is much
harder to get subtly wrong).

The simulator intentionally shares no code with the recursion beyond
the :class:`CostModel` constants.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.runtime.cost_model import CostModel
from repro.runtime.counters import IterationRecord

__all__ = ["EventLog", "simulate_circulant_iteration"]


@dataclass
class EventLog:
    """Trace of a simulated iteration."""

    events: List[Tuple[float, str]] = field(default_factory=list)
    finish_time: float = 0.0

    def record(self, time: float, what: str) -> None:
        self.events.append((time, what))


def simulate_circulant_iteration(
    record: IterationRecord,
    cost_model: CostModel,
    double_buffering: bool = True,
    log: EventLog | None = None,
) -> float:
    """Event-driven makespan of one circulant iteration.

    Returns the same quantity as the makespan of
    :meth:`CostModel.circulant_timeline` — the pure step-schedule
    makespan, without the iteration-wide terms (update tail, barrier,
    sync) :meth:`CostModel.symple_iteration_time` adds.  Semantics
    simulated:

    * machine ``m`` at step ``s`` needs the dependency groups produced
      by machine ``(m+1) % p`` at step ``s-1``;
    * a step runs: [coordination] -> low-degree work -> (wait for
      group-A dependency) -> high-A -> (wait group B) -> high-B;
    * with double buffering off, both groups ship together at step end;
    * dependency transfer time = bytes/2 per group x byte_cost, plus
      the per-message latency; step 0 awaits nothing.
    """
    steps = record.steps
    if not steps:
        return 0.0
    p = steps[0].num_machines
    counter = itertools.count()

    # arrival[(machine, step, group)] = time the dependency is available
    arrival: Dict[Tuple[int, int, str], float] = {}
    for m in range(p):
        arrival[(m, 0, "A")] = -np.inf
        arrival[(m, 0, "B")] = -np.inf

    free_at = np.zeros(p)
    finish = 0.0
    # The schedule has no cross-machine resource contention beyond the
    # dependency arrivals, so event order per machine is just its step
    # order; we still process in global time order via a heap so the
    # arrival map is always populated before it is read.
    heap: List[Tuple[int, int, int]] = []  # (step, tiebreak, machine)
    for m in range(p):
        heapq.heappush(heap, (0, next(counter), m))

    while heap:
        s, _, m = heapq.heappop(heap)
        step = steps[s]
        c_high = float(
            cost_model.compute_time([step.high_edges[m]], [step.high_vertices[m]])[0]
        ) * float(step.slowdown[m])
        c_low = float(
            cost_model.compute_time([step.low_edges[m]], [step.low_vertices[m]])[0]
        ) * float(step.slowdown[m])
        has_work = (c_high + c_low) > 0
        t = free_at[m] + (cost_model.step_overhead if has_work else 0.0)
        t += c_low
        if log:
            log.record(t, f"m{m} s{s} low done")

        if double_buffering:
            t = max(t, arrival[(m, s, "A")])
            t += c_high / 2.0
            send_a = t
            t = max(t, arrival[(m, s, "B")])
            t += c_high / 2.0
            send_b = t
        else:
            t = max(t, arrival[(m, s, "B")])
            t += c_high
            send_a = send_b = t
        if log:
            log.record(t, f"m{m} s{s} high done")

        # ship dependency to the left neighbor for its next step
        if s + 1 < len(steps):
            left = (m - 1) % p
            transfer = float(
                cost_model.transfer_time(step.dep_bytes[m] / 2.0)
            )
            arrival[(left, s + 1, "A")] = send_a + transfer + cost_model.latency
            arrival[(left, s + 1, "B")] = send_b + transfer + cost_model.latency

        free_at[m] = t
        finish = max(finish, t)
        if s + 1 < len(steps):
            heapq.heappush(heap, (s + 1, next(counter), m))

    if log:
        log.finish_time = finish
    return finish

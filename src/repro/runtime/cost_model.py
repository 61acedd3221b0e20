"""Analytic/discrete-event cost model for simulated execution time.

The paper measures wall-clock seconds on a 16-node InfiniBand cluster.
We replace the hardware with a calibrated cost model that prices the
exact per-machine, per-step work and traffic the engines record:

* computation: ``edge_cost`` per neighbor scanned + ``vertex_cost`` per
  vertex processed, divided across ``cores`` per machine;
* communication: ``byte_cost`` per byte (inverse bandwidth) plus a
  fixed ``latency`` per message batch;
* synchronization: a per-iteration barrier and, for SympleGraph, the
  per-step dependency hand-off, which the discrete-event recursion in
  :meth:`CostModel.circulant_timeline` models exactly, including the
  double-buffering overlap (Figure 9) and the low/high-degree overlap
  of differentiated propagation (Section 5.3).  That one recursion
  feeds simulated time (a whole run's records of one shape priced in
  one pass), the per-(machine, step) attribution of
  :mod:`repro.obs.attribution` and the schedule view.

Absolute numbers are in abstract time units, not seconds; the
benchmarks only interpret *ratios* (speedups, scalability curves),
which is the quantity the paper's evaluation reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from types import SimpleNamespace
from typing import Callable, List, Optional

import numpy as np

from repro.runtime.counters import Counters, IterationRecord, StepRecord

__all__ = ["CostModel", "StepTimeline", "GEMINI_COST", "SYMPLE_COST",
           "DGALOIS_COST", "SINGLE_THREAD_COST"]

#: records priced by one recursion at most: a run of thousands of
#: phases keeps its stacked (steps, records, machines) arrays small
_BATCH_RECORDS = 256


@dataclass
class StepTimeline:
    """One circulant iteration, per (step, machine).

    Every array is ``(steps, machines)``: ``start`` / ``finish`` bound
    the machine's step (``start`` after its coordination overhead),
    ``compute`` is its edge/vertex work including straggler slowdown,
    ``dep_wait`` the time it sat blocked on the incoming dependency
    hand-off after its low-degree overlap ran out, and ``hidden_wait``
    the wait double buffering's split transfer hid (zero without it).
    """

    start: np.ndarray
    finish: np.ndarray
    compute: np.ndarray
    dep_wait: np.ndarray
    hidden_wait: np.ndarray

    @property
    def num_steps(self) -> int:
        return int(self.start.shape[0])

    @property
    def num_machines(self) -> int:
        return int(self.start.shape[1])

    @property
    def makespan(self) -> float:
        return float(np.max(self.finish[-1:], initial=0.0))

    def wait_time(self) -> np.ndarray:
        """Idle time per machine: gaps between consecutive steps."""
        gaps = self.start[1:] - self.finish[:-1]
        return gaps.clip(min=0.0).sum(axis=0)

    def dep_wait_time(self) -> np.ndarray:
        """Total exposed dependency wait per machine."""
        return self.dep_wait.sum(axis=0)


@dataclass(frozen=True)
class CostModel:
    """Prices recorded work into simulated time units."""

    edge_cost: float = 1.0
    vertex_cost: float = 0.5
    byte_cost: float = 0.3
    latency: float = 15.0
    iteration_overhead: float = 100.0
    step_overhead: float = 5.0
    comm_overlap: float = 0.8  # fraction of traffic hidden behind compute
    compute_scale: float = 1.0  # engine efficiency multiplier
    cores: int = 1  # cores per machine (a pure compute divisor)

    # -- primitive costs ---------------------------------------------------

    def compute_time(self, edges, vertices) -> np.ndarray:
        """Per-machine compute time for edge/vertex work arrays."""
        work = (
            np.asarray(edges, dtype=np.float64) * self.edge_cost
            + np.asarray(vertices, dtype=np.float64) * self.vertex_cost
        )
        return work * self.compute_scale / max(self.cores, 1)

    def transfer_time(self, nbytes) -> np.ndarray:
        """Wire time for a payload (no latency term)."""
        return np.asarray(nbytes, dtype=np.float64) * self.byte_cost

    # -- per-iteration timing ---------------------------------------------

    def gemini_iteration_time(self, record: IterationRecord) -> float:
        """One Gemini BSP iteration: fully parallel step + update tail.

        Updates overlap with compute; the residual tail is priced on
        the *total* volume — the fabric's bisection is the shared
        bottleneck once per-machine compute has shrunk (this is what
        stops Gemini scaling past ~8 machines in Figure 10).
        """
        total = self.iteration_overhead
        for step in record.steps:
            total += float(np.max(self.step_compute_time(step), initial=0.0))
            total += self._comm_tail(step.update_bytes)
        total += self._boundary_cost(record.sync_bytes)
        return total

    def step_compute_time(self, step) -> np.ndarray:
        """Per-machine compute time for a recorded step.

        Edge + vertex work with the straggler slowdown applied: the
        quantity every iteration-timing function charges, and what the
        observability layer attributes per (machine, step).
        """
        return self.compute_time(
            step.high_edges + step.low_edges,
            step.high_vertices + step.low_vertices,
        ) * step.slowdown

    def _comm_tail(self, byte_array) -> float:
        """Residual (non-overlapped) transfer time for a traffic class."""
        total_bytes = float(np.sum(byte_array))
        return float(self.transfer_time(total_bytes)) * (1.0 - self.comm_overlap)

    def symple_iteration_time(
        self,
        record: IterationRecord,
        double_buffering: bool = True,
        schedule: str = "circulant",
    ) -> float:
        """One SympleGraph iteration under circulant scheduling.

        The makespan of :meth:`circulant_timeline` plus the iteration's
        transfer tails, barrier and state sync.
        """
        steps = record.steps
        if not steps:
            return self.iteration_overhead
        p = steps[0].num_machines
        sync = self._boundary_cost(record.sync_bytes)

        if schedule == "naive":
            # Sequential enforcement without circulant scheduling: only
            # one machine works on a partition at a time and partitions
            # are processed one after another -> the whole iteration
            # serializes.
            serial = 0.0
            for step in steps:
                serial += float(np.sum(self.step_compute_time(step)))
                serial += float(np.sum(self.transfer_time(step.dep_bytes)))
                serial += self.latency * p
            return serial + self.iteration_overhead + sync
        if schedule != "circulant":
            raise ValueError(f"unknown schedule {schedule!r}")
        return float(self._circulant_times([record], double_buffering)[0])

    def circulant_timeline(
        self, record: IterationRecord, double_buffering: bool = True
    ) -> StepTimeline:
        """Discrete-event recursion over one circulant iteration's steps.

        Machine ``m`` at step ``s`` consumes the dependency produced by
        machine ``(m + 1) % p`` at step ``s - 1`` (dependency flows to
        the machine "on the left", Figure 7).  Low-degree work (excluded
        from dependency propagation) runs first and overlaps the wait.
        With double buffering the hand-off ships in two halves (group A
        after the first half of high-degree work, group B after the
        second, Figure 9); without it the whole dependency ships once
        the step is done.  A single machine never sends a hand-off, so
        nothing ever arrives and it never waits.  The iteration-wide
        terms (transfer tails, barrier, sync) are not part of the
        timeline; :meth:`symple_iteration_time` adds them.

        The record's view of :meth:`_timelines`, the recursion that
        runs a batch of records at once.
        """
        if not record.steps:
            empty = np.zeros((0, 0))
            return StepTimeline(empty, empty, empty, empty, empty)
        columns, _ = self._timelines([record], double_buffering)
        return StepTimeline(*(column[:, 0] for column in columns))

    def _timelines(self, records, double_buffering: bool):
        """The circulant recursion of ``records`` — non-empty, all with
        the same number of steps and machines — run once over the steps
        with every record's machines side by side.

        Returns the five :class:`StepTimeline` columns, each
        ``(steps, records, machines)``, and the records' inputs as
        ``(steps, records, machines)`` arrays by :class:`StepRecord`
        field.  Every operation is elementwise, so a record's slice is
        bit for bit its own recursion.
        """
        fields = {
            name: np.array([
                [getattr(step, name) for step in record.steps]
                for record in records
            ]).swapaxes(0, 1)
            for name in StepRecord.COLUMNS
        }
        c_high, c_low = (
            self.compute_time(fields[f"{degree}_edges"],
                              fields[f"{degree}_vertices"])
            * fields["slowdown"]
            for degree in ("high", "low")
        )
        compute = c_high + c_low
        dep_bytes = np.asarray(fields["dep_bytes"], dtype=np.float64)
        num_steps, _, p = compute.shape
        right = (np.arange(p) + 1) % p  # dependency sender per machine
        never = np.full(p, -np.inf)
        finish = np.zeros(compute.shape[1:], dtype=np.float64)
        rows = []

        for index in range(num_steps):
            if index == 0 or p == 1:
                # nothing was sent before step 0, and a lone machine is
                # its own "left neighbor": no hand-off, no latency
                arrive_a = arrive_b = never
            else:
                # each group carries half the sender's dependency bytes
                half = self.transfer_time(dep_bytes[index - 1][:, right] / 2.0)
                arrive_a = prev_send_a[:, right] + half + self.latency
                arrive_b = prev_send_b[:, right] + half + self.latency

            # Coordination is only charged to machines with work in
            # this step; an empty bucket is skipped for free.
            t0 = finish + np.where(compute[index] > 0, self.step_overhead, 0.0)
            t_low = t0 + c_low[index]  # low-degree work needs no dependency
            if double_buffering:
                half_high = c_high[index] / 2.0
                start_a = np.maximum(t_low, arrive_a)
                t_a = start_a + half_high
                start_b = np.maximum(t_a, arrive_b)
                t_b = start_b + half_high
                send_a, send_b = t_a, t_b
                dep_wait = (start_a - t_low) + (start_b - t_a)
                # what the machine would have waited had the whole
                # dependency shipped once, after the full previous step
                unsplit = np.maximum(arrive_b - t_low, 0.0)
                hidden = np.maximum(unsplit - dep_wait, 0.0)
            else:
                start = np.maximum(t_low, arrive_b)
                t_b = start + c_high[index]
                send_a = send_b = t_b
                dep_wait = start - t_low
                hidden = np.zeros(t_b.shape, dtype=np.float64)
            rows.append((t0, t_b, compute[index], dep_wait, hidden))
            finish = t_b
            prev_send_a, prev_send_b = send_a, send_b

        return [np.stack(column) for column in zip(*rows)], fields

    def _circulant_times(self, records, double_buffering: bool) -> np.ndarray:
        """:meth:`symple_iteration_time` of circulant ``records`` (as
        :meth:`_timelines` takes them), one recursion for all: each
        record's makespan plus its transfer tails (summed step by step,
        a step's update tail before its dependency tail), the barrier
        and its state sync."""
        columns, fields = self._timelines(records, double_buffering)
        makespan = np.max(columns[1][-1], axis=-1, initial=0.0)
        share = 1.0 - self.comm_overlap
        # Updates and dependency traffic both share the fabric; the
        # dependency's latency component is modeled by the arrival
        # recursion, its bandwidth component here.
        update, dep = (
            self.transfer_time(fields[name].sum(axis=-1)) * share
            for name in ("update_bytes", "dep_bytes")
        )
        tail = np.zeros(len(records))
        for k in range(update.shape[0]):
            tail = tail + update[k] + dep[k]
        sync = np.array([
            self._boundary_cost(record.sync_bytes) for record in records
        ])
        return makespan + (tail + self.iteration_overhead + sync)

    def dgalois_iteration_time(self, record: IterationRecord) -> float:
        """One D-Galois/Gluon BSP round: compute + reduce + broadcast.

        Gluon's partition-agnostic synchronization pays both a reduce
        (mirror -> master) and a broadcast (master -> mirror) phase per
        round, each with its own latency; its runtime also has a higher
        per-edge constant at small scale (the paper measures D-Galois
        3.3x slower on 16 nodes while scaling further out).
        """
        total = self.iteration_overhead
        for step in record.steps:
            total += float(np.max(self.step_compute_time(step), initial=0.0))
            # reduce phase: pipelined, but paid again by the broadcast
            total += 2.0 * self._comm_tail(step.update_bytes)
            total += 2.0 * self.latency
        # broadcast phase mirrors the reduce phase volume
        total += self._boundary_cost(record.sync_bytes) + self.latency
        return total

    def push_iteration_time(self, record: IterationRecord) -> float:
        """Sparse push iteration (same for every distributed engine)."""
        total = self.iteration_overhead
        for step in record.steps:
            total += float(np.max(self.step_compute_time(step), initial=0.0))
            total += self._comm_tail(step.update_bytes) + self.latency
        total += self._boundary_cost(record.sync_bytes)
        return total

    def _boundary_cost(self, nbytes: int) -> float:
        """A transfer at an iteration boundary: the state broadcast
        (frontier/flag sync) or a checkpoint write.

        It streams while the next phase computes, so only the
        non-overlapped tail is charged, plus one barrier latency."""
        if nbytes <= 0:
            return 0.0
        tail = self.transfer_time(nbytes) * (1.0 - self.comm_overlap)
        return float(tail) + self.latency

    # -- whole-run timing ------------------------------------------------------

    def execution_time(
        self,
        counters: Counters,
        engine: str,
        double_buffering: bool = True,
        schedule: str = "circulant",
    ) -> float:
        """Total simulated time of a recorded run.

        SympleGraph's circulant records are priced first, one
        :meth:`_timelines` recursion per (steps, machines) shape (and
        per ``_BATCH_RECORDS`` records); every record's time is then
        added in run order, as one record at a time would.
        """
        priced = {}
        if engine == "symple" and schedule == "circulant":
            shapes = {}
            for record in counters.iterations:
                if record.mode != "push" and record.steps:
                    key = (len(record.steps), record.steps[0].num_machines)
                    shapes.setdefault(key, []).append(record)
            for records in shapes.values():
                for lo in range(0, len(records), _BATCH_RECORDS):
                    batch = records[lo:lo + _BATCH_RECORDS]
                    times = self._circulant_times(batch, double_buffering)
                    priced.update(zip(map(id, batch), times.tolist()))
        total = 0.0
        for record in counters.iterations:
            if id(record) in priced:
                total += priced[id(record)]
            elif record.mode == "push":
                total += self.push_iteration_time(record)
            elif engine == "gemini":
                total += self.gemini_iteration_time(record)
            elif engine == "symple":
                total += self.symple_iteration_time(
                    record, double_buffering=double_buffering, schedule=schedule
                )
            elif engine == "dgalois":
                total += self.dgalois_iteration_time(record)
            elif engine == "single":
                total += self.single_thread_iteration_time(record)
            else:
                raise ValueError(f"unknown engine kind {engine!r}")
            total += self._boundary_cost(record.ckpt_bytes)
        return total + counters.penalty_time

    def single_thread_iteration_time(self, record: IterationRecord) -> float:
        """Sequential oracle: sum of all work, no communication."""
        total = 0.0
        for step in record.steps:
            total += float(np.sum(self.step_compute_time(step)))
        return total

    def breakdown(self, counters: Counters, total: float,
                  observe: Optional[Callable[[List[float]], None]] = None
                  ) -> dict:
        """Split a run's simulated time ``total`` into its cost sources.

        ``total`` is what :meth:`execution_time` priced the run at (the
        engine's ``execution_time()``, which knows its pricing options);
        this only splits it.  Returns a dict with ``total``, ``compute``
        (critical-path edge/vertex work), ``communication`` (residual
        transfer tails), ``overhead`` (barriers, latency, step
        coordination, injected penalties), ``checkpoint``
        (fault-tolerance snapshot writes), and ``dependency_wait`` (for
        SympleGraph, time machines spent blocked on incoming dependency
        state, the quantity double buffering attacks): what ``total``
        leaves once the others are taken out.  Every step's
        critical-path compute and transfer tails, and every record's
        sync tail, are priced at once, over the run's steps stacked into
        ``(steps, machines)`` arrays, then added one by one in record /
        step order, as one step at a time would.  ``observe``, when
        given, is called once with the steps' critical-path compute in
        that order — the values ``compute`` adds up.
        """
        records = counters.iterations
        steps = [step for record in records for step in record.steps]
        share = 1.0 - self.comm_overlap
        maxima = tails = []
        if steps:
            # (steps, columns, machines): one step's counts per row
            counts = np.concatenate([
                getattr(step, name) for step in steps
                for name in StepRecord.COUNTS
            ]).reshape(len(steps), len(StepRecord.COUNTS), -1)
            stacked = SimpleNamespace(
                slowdown=np.array([step.slowdown for step in steps]),
                **dict(zip(StepRecord.COUNTS, counts.swapaxes(0, 1))),
            )
            maxima = np.max(self.step_compute_time(stacked), axis=-1,
                            initial=0.0).tolist()
            at = StepRecord.COUNTS.index("update_bytes")  # then dep_bytes
            # per step: its update tail, then its dependency tail
            tails = (self.transfer_time(counts[:, at:at + 2].sum(axis=-1))
                     * share).tolist()
        if observe is not None:
            observe(maxima)
        syncs = (self.transfer_time([record.sync_bytes for record in records])
                 * share).tolist()
        per_step = zip(maxima, tails)
        compute = 0.0
        comm = 0.0
        overhead = counters.penalty_time
        checkpoint = 0.0
        for record, sync in zip(records, syncs):
            overhead += self.iteration_overhead
            for step_max, (update, dep) in islice(per_step,
                                                  len(record.steps)):
                compute += step_max
                comm += update
                comm += dep
            if record.sync_bytes > 0:
                comm += sync
                overhead += self.latency
            checkpoint += self._boundary_cost(record.ckpt_bytes)
            if record.mode == "push":
                overhead += self.latency * len(record.steps)
        dep_wait = max(0.0, total - compute - comm - overhead - checkpoint)
        return {
            "total": total,
            "compute": compute,
            "communication": comm,
            "overhead": overhead,
            "checkpoint": checkpoint,
            "dependency_wait": dep_wait,
        }

    def with_cores(self, cores: int) -> "CostModel":
        """Copy of this model with a different per-machine core count."""
        return replace(self, cores=cores)

    def scaled(self, compute_scale: float) -> "CostModel":
        """Copy of this model with a different compute multiplier."""
        return replace(self, compute_scale=compute_scale)


# Calibrated presets.  Gemini and SympleGraph share hardware constants;
# D-Galois gets the heavier runtime constant observed in the paper;
# the single-thread baselines (Galois / GAPBS) are lean, hand-tuned
# codes: lower per-edge constant, one core.
GEMINI_COST = CostModel()
SYMPLE_COST = CostModel()
DGALOIS_COST = CostModel(compute_scale=2.6, iteration_overhead=250.0)
SINGLE_THREAD_COST = CostModel(
    compute_scale=0.8, cores=1, iteration_overhead=0.0, latency=0.0
)

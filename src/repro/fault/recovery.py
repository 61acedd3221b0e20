"""Crash recovery: checkpoint rollback and deterministic replay.

:func:`run_recoverable` drives a :class:`~repro.fault.program.VertexProgram`
under an optional :class:`~repro.fault.plan.FaultPlan`.  When an
injected fault surfaces — a machine crash, or a message-loss escalation
after the retry budget — the coordinator rolls *every* machine back to
the last consistent checkpoint and re-executes from that superstep:

* state restore is a copy, so replay cannot corrupt the snapshot;
* the crash aborts mid-phase, but bulk-synchronous slot application
  means the interrupted phase left no partial writes: re-execution
  restarts it at a step boundary with dependency bitmaps blanked
  (SympleGraph's per-pull ``DepStore`` is rebuilt), correct by the
  paper's Section 5.1 guarantee;
* the wasted partial work, the checkpoint writes, the restore reads,
  and an exponential-backoff restart penalty are all charged to the
  engine's counters, so recovery overhead is visible in the
  communication tables and the simulated execution time;
* without any checkpoint (interval 0, or a crash before the first
  snapshot), recovery degrades to restart-from-scratch.

Replay is deterministic — algorithms draw randomness only in
``setup`` or from a generator kept in the checkpointed ``ctx``, and
injector randomness never feeds algorithm state — so the recovered
result is bit-identical to the fault-free run (asserted by
``tests/test_fault_recovery.py`` and ``tests/test_async_mode.py`` for
every algorithm but ``scc``, in every mode it has).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import FaultError
from repro.fault.checkpoint import CheckpointStore
from repro.fault.injector import FaultController
from repro.fault.plan import FaultPlan
from repro.fault.program import VertexProgram

__all__ = ["RecoveryReport", "run_recoverable"]


@dataclass
class RecoveryReport:
    """What fault tolerance did (and cost) during one run."""

    supersteps: int = 0
    replayed_supersteps: int = 0
    crashes: int = 0
    recoveries: int = 0
    restarts_from_scratch: int = 0
    checkpoints_taken: int = 0
    checkpoint_bytes: int = 0
    restores: int = 0
    restored_bytes: int = 0
    backoff_time: float = 0.0
    fault_stats: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "supersteps": self.supersteps,
            "replayed_supersteps": self.replayed_supersteps,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "restarts_from_scratch": self.restarts_from_scratch,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_bytes": self.checkpoint_bytes,
            "restores": self.restores,
            "restored_bytes": self.restored_bytes,
            "backoff_time": self.backoff_time,
            "fault_stats": dict(self.fault_stats),
        }


def _charge_checkpoint(engine, nbytes: int, superstep: int = 0) -> None:
    """Charge a snapshot write: every machine streams its masters' share
    to the durable store (modeled as the machine to its right, so the
    traffic matrices show the ring pattern replicated stores produce)."""
    p = engine.num_machines
    share = nbytes // p if p else nbytes
    if p > 1 and share > 0:
        for m in range(p):
            engine.network.send(m, (m + 1) % p, "ckpt", share)
    else:
        engine.counters.add_bytes("ckpt", nbytes)
    record = _latest_record(engine)
    if record is not None:
        record.ckpt_bytes += nbytes
    obs = getattr(engine, "obs", None)
    if obs is not None:
        obs.checkpoint(superstep, nbytes, _latest_record_index(engine))


def _charge_restore(engine, nbytes: int, superstep: int = 0) -> None:
    """Charge a restore: the snapshot streams back from the store."""
    p = engine.num_machines
    share = nbytes // p if p else nbytes
    if p > 1 and share > 0:
        for m in range(p):
            engine.network.send((m + 1) % p, m, "ckpt", share)
    else:
        engine.counters.add_bytes("ckpt", nbytes)
    record = _latest_record(engine)
    if record is not None:
        record.ckpt_bytes += nbytes
    obs = getattr(engine, "obs", None)
    if obs is not None:
        obs.restore(superstep, nbytes, _latest_record_index(engine))


def _latest_record(engine):
    records = engine.counters.iterations
    return records[-1] if records else None


def _latest_record_index(engine):
    records = engine.counters.iterations
    return len(records) - 1 if records else None


def run_recoverable(
    program: VertexProgram,
    engine,
    plan: Optional[FaultPlan] = None,
    checkpoint_interval: int = 0,
    retention: int = 2,
    max_recoveries: int = 16,
    max_retries: int = 5,
    backoff_base: float = 50.0,
    controller: Optional[FaultController] = None,
):
    """Run a program with fault injection and crash recovery.

    Returns ``(result, report)``.  ``plan=None`` (or an empty plan)
    with ``checkpoint_interval=0`` reduces to :func:`run_program`
    semantics with zero overhead.  A run whose faults keep firing
    faster than recovery can make progress raises the final
    :class:`~repro.errors.FaultError` after ``max_recoveries``
    attempts.
    """
    if controller is None and plan is not None and not plan.empty:
        controller = FaultController(
            plan,
            engine.num_machines,
            max_retries=max_retries,
            backoff_base=backoff_base,
        )
    engine.attach_faults(controller)
    store = CheckpointStore(interval=checkpoint_interval, retention=retention)
    report = RecoveryReport()

    try:
        ctx: Dict[str, Any] = {}
        s = program.setup(engine, ctx)
        superstep = 0
        while True:
            try:
                if store.due(superstep):
                    checkpoint = store.save(superstep, s, ctx)
                    _charge_checkpoint(engine, checkpoint.nbytes, superstep)
                cont = program.step(engine, s, ctx)
            except FaultError:
                report.recoveries += 1
                if report.recoveries > max_recoveries:
                    raise
                if controller is not None:
                    controller.note_recovery()
                # exponential backoff: detection + restart latency
                delay = backoff_base * (2.0 ** min(report.recoveries - 1, 8))
                engine.counters.add_penalty(delay)
                report.backoff_time += delay
                crashed_at = superstep
                restored = store.restore_latest(s)
                if restored is None:
                    # no durable snapshot: restart from scratch
                    report.restarts_from_scratch += 1
                    report.replayed_supersteps += superstep
                    ctx = {}
                    s = program.setup(engine, ctx)
                    superstep = 0
                else:
                    checkpoint, ctx = restored
                    report.replayed_supersteps += (
                        superstep - checkpoint.superstep
                    )
                    _charge_restore(
                        engine, checkpoint.nbytes, checkpoint.superstep
                    )
                    superstep = checkpoint.superstep
                obs = getattr(engine, "obs", None)
                if obs is not None:
                    obs.rollback(
                        recoveries=report.recoveries,
                        superstep=crashed_at,
                        restored=superstep,
                        from_scratch=restored is None,
                        penalty=delay,
                    )
                continue
            superstep += 1
            report.supersteps += 1
            if not cont:
                break
        result = program.result(engine, s, ctx)
    finally:
        engine.attach_faults(None)

    report.checkpoints_taken = store.checkpoints_taken
    report.checkpoint_bytes = store.bytes_written
    report.restores = store.restores
    report.restored_bytes = store.bytes_restored
    if controller is not None:
        report.crashes = controller.stats["crashes"]
        report.fault_stats = dict(controller.stats)
    return result, report

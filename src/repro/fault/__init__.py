"""Fault tolerance: injection, checkpointing, and crash recovery.

The subsystem has four parts (see ``docs/API.md``):

* :mod:`repro.fault.plan` — deterministic, seeded fault schedules
  (machine crashes, stragglers, message drop/delay/duplication);
* :mod:`repro.fault.injector` — the :class:`FaultController` applying
  a plan through engine phase/step hooks and the network delivery hook;
* :mod:`repro.fault.checkpoint` — durable snapshots at superstep
  boundaries on an interval policy, the latest one kept;
* :mod:`repro.fault.recovery` — :func:`run_recoverable`, the
  coordinator that rolls back to the last consistent checkpoint and
  replays, with bounded exponential-backoff retries.

Algorithms participate through the :class:`VertexProgram` protocol
(:mod:`repro.fault.program`); BFS, K-core, and MIS ship as programs.
"""

from repro.fault.checkpoint import Checkpoint, CheckpointStore, snapshot_nbytes
from repro.fault.injector import FaultController
from repro.fault.plan import CrashFault, FaultPlan, MessageFault, StragglerFault
from repro.fault.program import VertexProgram, run_program
from repro.fault.recovery import RecoveryReport, run_recoverable

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "snapshot_nbytes",
    "FaultController",
    "CrashFault",
    "StragglerFault",
    "MessageFault",
    "FaultPlan",
    "VertexProgram",
    "run_program",
    "RecoveryReport",
    "run_recoverable",
]

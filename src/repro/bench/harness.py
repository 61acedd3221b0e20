"""Experiment harness.

Runs one (engine, algorithm, dataset) combination under the paper's
measurement protocol and returns every metric the evaluation tables
report: simulated execution time, edges traversed, and the per-tag
communication breakdown.  BFS follows the paper's multi-root protocol
(random non-isolated roots, averaged).

The supported entry point is :class:`repro.Session` with a
:class:`repro.RunConfig`; dispatch goes through
:mod:`repro.algorithms.registry`, whose per-algorithm runners drive
the prepared engine and report a
:class:`~repro.algorithms.registry.RunOutcome` back here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.algorithms.registry import ALGORITHMS, get_spec
from repro.engine.base import BaseEngine
from repro.fault import run_program, run_recoverable
from repro.graph.csr import CSRGraph

__all__ = ["RunResult", "ALGORITHMS", "speedup"]


@dataclass
class RunResult:
    """Metrics from one experiment run."""

    engine: str
    algorithm: str
    num_machines: int
    simulated_time: float
    edges_traversed: int
    update_bytes: int
    dep_bytes: int
    sync_bytes: int
    push_bytes: int
    total_bytes: int
    extra: Dict[str, float] = field(default_factory=dict)
    #: digest of the converged algorithm output alone (no
    #: schedule-dependent metadata) — what sync-vs-async equivalence
    #: compares; None for algorithms without a canonical fixpoint
    fixpoint: Optional[str] = None

    @property
    def non_dep_bytes(self) -> int:
        """Everything except dependency traffic (Gemini-comparable)."""
        return self.total_bytes - self.dep_bytes

    def to_dict(self) -> Dict:
        """JSON-serializable form (for experiment archives)."""
        return {
            "engine": self.engine,
            "algorithm": self.algorithm,
            "num_machines": self.num_machines,
            "simulated_time": self.simulated_time,
            "edges_traversed": self.edges_traversed,
            "update_bytes": self.update_bytes,
            "dep_bytes": self.dep_bytes,
            "sync_bytes": self.sync_bytes,
            "push_bytes": self.push_bytes,
            "total_bytes": self.total_bytes,
            "extra": dict(self.extra),
            "fixpoint": self.fixpoint,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunResult":
        return cls(**payload)

    def digest(self) -> str:
        """Canonical sha256 over every metric this result carries.

        Two runs digest identically iff their engine/algorithm config
        and every counter, byte tally, simulated time, and extra metric
        agree exactly — the cross-executor equivalence check the CI
        perf-smoke gate diffs.
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _merge_report(extra: Dict[str, float], report) -> None:
    """Accumulate a RecoveryReport into a run's ``extra`` metrics."""
    payload = report.to_dict()
    stats = payload.pop("fault_stats")
    for key in (
        "retransmissions",
        "messages_delayed",
        "messages_duplicated",
        "dep_losses",
    ):
        payload[key] = stats.get(key, 0)
    for key, value in payload.items():
        name = f"fault_{key}"
        extra[name] = extra.get(name, 0) + value


def _run_session_config(engine: BaseEngine, graph: CSRGraph, config):
    """Drive one :class:`repro.RunConfig` on a prepared engine.

    The measurement core behind :meth:`repro.Session.run`: looks up the
    algorithm's registered runner, hands it a ``drive`` closure that
    routes :class:`~repro.fault.program.VertexProgram` executions
    through the plain or the recoverable driver (merging
    RecoveryReports into the extras), and collects the counters under
    the outcome's averaging scale.
    """
    extra: Dict[str, float] = {}
    faulted = config.faulted

    def drive(program):
        if not faulted:
            return run_program(program, engine)
        result, report = run_recoverable(
            program,
            engine,
            plan=config.faults,
            checkpoint_interval=config.checkpoint_interval,
        )
        _merge_report(extra, report)
        return result

    spec = get_spec(config.algorithm)
    outcome = spec.runner(engine, graph, config, drive, extra)
    total = engine.execution_time()
    if engine.obs is not None:  # the hub splits the unscaled total
        engine.obs.run_end(engine, total)
    return _collect(
        engine,
        config.algorithm,
        total * outcome.scale,
        extra,
        scale=outcome.scale,
        fixpoint=outcome.fixpoint,
    )


def _collect(
    engine: BaseEngine,
    algorithm: str,
    simulated_time: float,
    extra: Dict[str, float],
    scale: float = 1.0,
    fixpoint: Optional[str] = None,
) -> RunResult:
    c = engine.counters
    return RunResult(
        engine=engine.kind,
        algorithm=algorithm,
        num_machines=engine.num_machines,
        simulated_time=simulated_time,
        edges_traversed=int(c.edges_traversed * scale),
        update_bytes=int(c.update_bytes * scale),
        dep_bytes=int(c.dep_bytes * scale),
        sync_bytes=int(c.sync_bytes * scale),
        push_bytes=int(c.push_bytes * scale),
        total_bytes=int(c.total_bytes * scale),
        extra=extra,
        fixpoint=fixpoint,
    )


def speedup(baseline: RunResult, contender: RunResult) -> float:
    """How much faster the contender is (>1 means contender wins)."""
    if contender.simulated_time <= 0:
        raise ValueError("contender has no recorded time")
    return baseline.simulated_time / contender.simulated_time

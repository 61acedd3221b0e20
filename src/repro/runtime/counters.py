"""Execution counters.

Everything the evaluation section reports is derived from these:

* ``edges_traversed`` — Table 5's computation-cost metric (one count per
  neighbor examined by a signal UDF);
* per-tag communication bytes — Table 6's update/dependency breakdown;
* per-step records — inputs to the cost model that produces the
  simulated execution times of Tables 2-4/7 and Figures 10-11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.errors import EngineError, ReproError

__all__ = ["StepRecord", "IterationRecord", "Counters", "COMM_TAGS"]

COMM_TAGS = ("update", "dep", "sync", "push", "ckpt")


@dataclass
class StepRecord:
    """Per-machine work done in one scheduling step.

    For Gemini an iteration is a single step; for SympleGraph there are
    ``p`` steps per iteration.  ``high`` / ``low`` split the work by the
    differentiated-propagation degree class (everything is "high" when
    the optimization is off).
    """

    num_machines: int
    high_edges: np.ndarray = field(default=None)  # type: ignore[assignment]
    low_edges: np.ndarray = field(default=None)  # type: ignore[assignment]
    high_vertices: np.ndarray = field(default=None)  # type: ignore[assignment]
    low_vertices: np.ndarray = field(default=None)  # type: ignore[assignment]
    update_bytes: np.ndarray = field(default=None)  # type: ignore[assignment]
    dep_bytes: np.ndarray = field(default=None)  # type: ignore[assignment]
    # per-machine compute slowdown multiplier (straggler injection);
    # 1.0 everywhere when no fault plan is active
    slowdown: np.ndarray = field(default=None)  # type: ignore[assignment]

    #: the per-machine integer columns; :attr:`COLUMNS` adds the float
    #: slowdown, in the order a trace's ``step_end`` event carries them
    COUNTS = ("high_edges", "low_edges", "high_vertices", "low_vertices",
              "update_bytes", "dep_bytes")
    COLUMNS = COUNTS + ("slowdown",)

    def __post_init__(self) -> None:
        for name in self.COUNTS:
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.num_machines, dtype=np.int64))
        if self.slowdown is None:
            self.slowdown = np.ones(self.num_machines, dtype=np.float64)

    def payload(self) -> Dict[str, list]:
        """The columns as JSON-exact lists (float64 round-trips through
        ``repr``), keyed by column name in :attr:`COLUMNS` order."""
        return {name: getattr(self, name).tolist() for name in self.COLUMNS}

    @classmethod
    def from_payload(cls, payload: Dict[str, list],
                     num_machines: int) -> "StepRecord":
        """The inverse of :meth:`payload`, bit for bit."""
        return cls(num_machines, **{
            name: np.asarray(payload[name], dtype=np.int64)
            for name in cls.COUNTS
        }, slowdown=np.asarray(payload["slowdown"], dtype=np.float64))

    def total_edges(self) -> int:
        return int(self.high_edges.sum() + self.low_edges.sum())


@dataclass
class IterationRecord:
    """One engine iteration: its steps plus iteration-wide sync traffic."""

    steps: List[StepRecord] = field(default_factory=list)
    sync_bytes: int = 0
    push_bytes: int = 0
    ckpt_bytes: int = 0
    mode: str = "pull"

    def total_edges(self) -> int:
        return sum(step.total_edges() for step in self.steps)


class Counters:
    """Aggregate counters for a full algorithm execution."""

    def __init__(self, num_machines: int) -> None:
        self.num_machines = num_machines
        self.edges_traversed = 0
        self.vertices_processed = 0
        self.bytes_by_tag: Dict[str, int] = {tag: 0 for tag in COMM_TAGS}
        self.messages_by_tag: Dict[str, int] = {tag: 0 for tag in COMM_TAGS}
        self.iterations: List[IterationRecord] = []
        # simulated time charged outside the iteration records: message
        # retransmission backoff, injected delivery delays, recovery
        # restarts (priced directly, not derived from work records)
        self.penalty_time = 0.0

    # -- recording -------------------------------------------------------

    def add_edges(self, count: int) -> None:
        self.edges_traversed += int(count)

    def add_vertices(self, count: int) -> None:
        self.vertices_processed += int(count)

    def add_bytes(self, tag: str, nbytes: int, messages: int = 1) -> None:
        if tag not in self.bytes_by_tag:
            raise EngineError(f"unknown communication tag {tag!r}")
        self.bytes_by_tag[tag] += int(nbytes)
        self.messages_by_tag[tag] += int(messages)

    def add_iteration(self, record: IterationRecord) -> None:
        self.iterations.append(record)

    def add_penalty(self, time: float) -> None:
        """Charge simulated time not derived from work records."""
        if time < 0:
            raise ValueError("penalty time must be non-negative")
        self.penalty_time += float(time)

    # -- reporting ---------------------------------------------------------

    @property
    def update_bytes(self) -> int:
        return self.bytes_by_tag["update"]

    @property
    def dep_bytes(self) -> int:
        return self.bytes_by_tag["dep"]

    @property
    def sync_bytes(self) -> int:
        return self.bytes_by_tag["sync"]

    @property
    def push_bytes(self) -> int:
        return self.bytes_by_tag["push"]

    @property
    def ckpt_bytes(self) -> int:
        return self.bytes_by_tag["ckpt"]

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_tag.values())

    def merge(self, other: "Counters") -> None:
        """Fold another run's counters into this one (multi-phase algos).

        Both runs must come from the same cluster size: the per-machine
        ``StepRecord`` arrays feed the cost model and its circulant timeline,
        which index by machine — silently mixing sizes corrupts them.
        """
        if other.num_machines != self.num_machines:
            raise ReproError(
                "cannot merge counters from different cluster sizes "
                f"({self.num_machines} vs {other.num_machines} machines)"
            )
        self.edges_traversed += other.edges_traversed
        self.vertices_processed += other.vertices_processed
        for tag in COMM_TAGS:
            self.bytes_by_tag[tag] += other.bytes_by_tag[tag]
            self.messages_by_tag[tag] += other.messages_by_tag[tag]
        self.iterations.extend(other.iterations)
        self.penalty_time += other.penalty_time

    def summary(self) -> Dict[str, float]:
        return {
            "edges_traversed": self.edges_traversed,
            "vertices_processed": self.vertices_processed,
            "update_bytes": self.update_bytes,
            "dep_bytes": self.dep_bytes,
            "sync_bytes": self.sync_bytes,
            "push_bytes": self.push_bytes,
            "ckpt_bytes": self.ckpt_bytes,
            "total_bytes": self.total_bytes,
            "iterations": len(self.iterations),
            "messages_by_tag": dict(self.messages_by_tag),
            "penalty_time": self.penalty_time,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({self.summary()})"

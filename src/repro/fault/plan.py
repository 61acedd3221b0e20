"""Deterministic fault plans.

A :class:`FaultPlan` is a declarative, seeded description of every
fault a run must survive — the simulated analogue of a chaos-testing
schedule.  Three event kinds:

* :class:`CrashFault` — a machine dies at an (iteration, step)
  boundary.  ``iteration`` counts engine phases (pull or push calls)
  from the start of the run; ``step`` addresses a circulant step inside
  a SympleGraph dense pull (``None`` or 0 means the phase boundary,
  which is where crashes land for the BSP engines).  Crashes are
  one-shot: the machine restarts and rejoins during recovery.
* :class:`StragglerFault` — a machine computes ``factor`` times slower
  over an iteration window (``[start, end)``; open-ended when ``end``
  is ``None``).
* :class:`MessageFault` — probabilistic per-message faults on a
  communication tag (``None`` = every tag): ``drop`` (retransmitted
  with exponential backoff, escalating to a crash when the retry
  budget is exhausted), ``delay`` (adds in-flight latency), and
  ``duplicate`` (spurious extra copy, charged as traffic).  Drops on
  the ``dep`` tag are special: dependency messages are *advisory*
  (paper Section 5.1), so they are never retransmitted — the receiver
  processes blind, losing savings but never correctness.

All randomness (message-fault draws, dep-loss draws) flows from the
plan's single top-level ``seed`` through one ``numpy.random.Generator``
owned by the :class:`~repro.fault.injector.FaultController`, so a
``(seed, FaultPlan)`` pair replays the identical fault schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultPlanError
from repro.fields import Field, check
from repro.runtime.counters import COMM_TAGS

__all__ = ["CrashFault", "StragglerFault", "MessageFault", "FaultPlan"]

MESSAGE_FAULT_KINDS = ("drop", "delay", "duplicate")


@dataclass(frozen=True)
class CrashFault:
    """Machine ``machine`` crashes entering (iteration, step)."""

    machine: int
    iteration: int
    step: Optional[int] = None

    def validate(self) -> None:
        if self.machine < 0:
            raise FaultPlanError("crash machine must be non-negative")
        if self.iteration < 0:
            raise FaultPlanError("crash iteration must be non-negative")
        if self.step is not None and self.step < 0:
            raise FaultPlanError("crash step must be non-negative")


@dataclass(frozen=True)
class StragglerFault:
    """Machine ``machine`` runs ``factor``x slower on ``[start, end)``."""

    machine: int
    factor: float
    start: int = 0
    end: Optional[int] = None

    def validate(self) -> None:
        if self.machine < 0:
            raise FaultPlanError("straggler machine must be non-negative")
        if self.factor < 1.0:
            raise FaultPlanError(
                "straggler factor must be >= 1 (it is a slowdown)"
            )
        if self.start < 0:
            raise FaultPlanError("straggler start must be non-negative")
        if self.end is not None and self.end <= self.start:
            raise FaultPlanError("straggler window must be non-empty")

    def active(self, iteration: int) -> bool:
        if iteration < self.start:
            return False
        return self.end is None or iteration < self.end


@dataclass(frozen=True)
class MessageFault:
    """Per-message fault on one tag (or all tags when ``tag`` is None)."""

    kind: str
    rate: float
    tag: Optional[str] = None
    delay: float = 50.0  # simulated time units, for kind == "delay"

    def validate(self) -> None:
        if self.kind not in MESSAGE_FAULT_KINDS:
            raise FaultPlanError(
                f"unknown message fault kind {self.kind!r}; "
                f"expected one of {MESSAGE_FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError("message fault rate must be a probability")
        if self.tag is not None and self.tag not in COMM_TAGS:
            raise FaultPlanError(
                f"unknown communication tag {self.tag!r}; "
                f"expected one of {COMM_TAGS}"
            )
        if self.delay < 0.0:
            raise FaultPlanError("message delay must be non-negative")

    def applies(self, tag: str) -> bool:
        return self.tag is None or self.tag == tag


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults."""

    seed: int = 0
    crashes: Tuple[CrashFault, ...] = field(default_factory=tuple)
    stragglers: Tuple[StragglerFault, ...] = field(default_factory=tuple)
    messages: Tuple[MessageFault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "messages", tuple(self.messages))
        self.validate()

    # -- validation --------------------------------------------------------

    def validate(self, num_machines: Optional[int] = None) -> None:
        """Check internal consistency, and cluster fit when ``num_machines``
        is known (events must address existing machines)."""
        for event in (*self.crashes, *self.stragglers, *self.messages):
            event.validate()
        if num_machines is not None:
            for event in (*self.crashes, *self.stragglers):
                if event.machine >= num_machines:
                    raise FaultPlanError(
                        f"fault targets machine {event.machine} but the "
                        f"cluster has only {num_machines} machines"
                    )

    @property
    def empty(self) -> bool:
        return not (self.crashes or self.stragglers or self.messages)

    def dep_loss_rate(self) -> float:
        """Combined drop probability for dependency messages."""
        keep = 1.0
        for fault in self.messages:
            if fault.kind == "drop" and fault.applies("dep"):
                keep *= 1.0 - fault.rate
        return 1.0 - keep

    # -- builders ----------------------------------------------------------

    @classmethod
    def single_crash(
        cls,
        machine: int,
        iteration: int,
        step: Optional[int] = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """One machine crash — the smallest interesting plan."""
        return cls(
            seed=seed, crashes=(CrashFault(machine, iteration, step),)
        )

    @classmethod
    def dep_loss(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Section 5.1's lost-dependency experiment as a plan."""
        return cls(
            seed=seed, messages=(MessageFault("drop", rate, tag="dep"),)
        )

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict:
        events: List[Dict] = []
        for c in self.crashes:
            event: Dict = {
                "kind": "crash", "machine": c.machine,
                "iteration": c.iteration,
            }
            if c.step is not None:
                event["step"] = c.step
            events.append(event)
        for s in self.stragglers:
            event = {
                "kind": "straggler", "machine": s.machine,
                "factor": s.factor, "start": s.start,
            }
            if s.end is not None:
                event["end"] = s.end
            events.append(event)
        for m in self.messages:
            event = {"kind": "message", "fault": m.kind, "rate": m.rate}
            if m.tag is not None:
                event["tag"] = m.tag
            if m.kind == "delay":
                event["delay"] = m.delay
            events.append(event)
        return {"seed": self.seed, "events": events}

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`.  Values are checked by their
        event rows, never coerced, and an unknown key is refused: a
        misspelt one would otherwise yield a different plan."""
        if not isinstance(payload, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        _refuse_unknown(payload, ("seed", "events"), "fault plan")
        events: Dict[str, List] = {kind: [] for kind in _EVENTS}
        for event in payload.get("events", ()):
            event = dict(event) if isinstance(event, dict) else {}
            kind = event.pop("kind", None)
            if kind not in _EVENTS:
                raise FaultPlanError(f"unknown fault event kind {kind!r}")
            event_cls, rows = _EVENTS[kind]
            _refuse_unknown(event, rows, f"{kind} event")
            args = {
                _ATTRS.get(key, key): _checked(f"{kind} {key}", rows[key], v)
                for key, v in event.items()
            }
            try:
                events[kind].append(event_cls(**args))
            except TypeError as exc:  # a required field is missing
                raise FaultPlanError(f"{kind} event: {exc}") from None
        return cls(
            seed=_checked("plan seed", Field(int), payload.get("seed", 0)),
            crashes=tuple(events["crash"]),
            stragglers=tuple(events["straggler"]),
            messages=tuple(events["message"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"invalid fault plan JSON: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


#: each event kind's class and its keys' rows (types only: the ranges
#: are the event classes' own ``validate``)
_EVENTS = {
    "crash": (CrashFault, {
        "machine": Field(int), "iteration": Field(int),
        "step": Field(int, optional=True),
    }),
    "straggler": (StragglerFault, {
        "machine": Field(int), "factor": Field(float),
        "start": Field(int), "end": Field(int, optional=True),
    }),
    "message": (MessageFault, {
        "fault": Field(str), "rate": Field(float),
        "tag": Field(str, optional=True), "delay": Field(float),
    }),
}
#: event keys spelt differently from their attribute
_ATTRS = {"fault": "kind"}


def _checked(name: str, row: Field, value) -> object:
    value = check(name, row, value, FaultPlanError)
    return float(value) if row.type is float else value


def _refuse_unknown(payload: Dict, keys, what: str) -> None:
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise FaultPlanError(
            f"{what} has unknown fields {unknown}; expected {sorted(keys)}"
        )

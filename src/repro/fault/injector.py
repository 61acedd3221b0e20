"""Fault injection runtime.

A :class:`FaultController` applies a :class:`~repro.fault.plan.FaultPlan`
to a running engine through three hook points:

* **phase/step hooks** — engines call :meth:`check_crash` when a phase
  (and, for SympleGraph's circulant pull, each step) begins; a matching
  :class:`~repro.fault.plan.CrashFault` raises
  :class:`~repro.errors.MachineCrashError`.  Because slot application
  is bulk-synchronous, aborting mid-phase never leaves partial updates
  in the :class:`~repro.engine.state.StateStore` — the crash costs the
  work already metered, not correctness.
* **delivery hook** — installed on :class:`SimulatedNetwork`; message
  drops are retransmitted with exponential backoff (bytes and delay
  charged), bounded by ``max_retries`` before escalating to
  :class:`~repro.errors.MessageLossError`; delays and duplicates charge
  penalty time and extra traffic.  Dependency (``dep``) drops are
  advisory (Section 5.1) and handled inside the SympleGraph engine as
  blind processing instead of retransmission.
* **straggler hook** — :meth:`slowdown` yields the per-machine compute
  multiplier for a phase, recorded on the
  :class:`~repro.runtime.counters.StepRecord` and priced by the cost
  model.

One ``numpy.random.Generator``, seeded from ``plan.seed``, backs every
probabilistic draw, so the full crash/drop/straggler schedule replays
bit-identically for a given (seed, plan) pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import MachineCrashError, MessageLossError
from repro.fault.plan import CrashFault, FaultPlan
from repro.runtime.network import DeliveryOutcome

__all__ = ["FaultController"]


class FaultController:
    """Deterministic fault injector bound to one engine."""

    def __init__(
        self,
        plan: FaultPlan,
        num_machines: int,
        max_retries: int = 5,
        backoff_base: float = 20.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        plan.validate(num_machines)
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.plan = plan
        self.num_machines = num_machines
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.rng = rng if rng is not None else np.random.default_rng(plan.seed)
        self._pending_crashes: List[CrashFault] = list(plan.crashes)
        self._dep_loss_rate = plan.dep_loss_rate()
        # message faults that the delivery hook applies (dep drops are
        # applied semantically inside the engine instead)
        self._delivery_faults = [
            f for f in plan.messages
            if not (f.kind == "drop" and f.tag == "dep")
        ]
        self._obs = None  # observability hub, cached at bind time
        self.stats: Dict[str, int] = {
            "crashes": 0,
            "recoveries": 0,
            "messages_dropped": 0,
            "retransmissions": 0,
            "messages_delayed": 0,
            "messages_duplicated": 0,
            "dep_losses": 0,
        }

    # -- engine binding ----------------------------------------------------

    def bind(self, engine) -> None:
        """Install this controller's hooks on an engine.

        Called by ``BaseEngine.attach_faults`` and again after
        ``reset_metrics`` (which replaces the network) or
        ``attach_observer`` (which changes the hub this controller
        reports crash events to)."""
        engine.network.delivery_hook = self.deliver
        self._obs = getattr(engine, "obs", None)

    # -- crash injection ---------------------------------------------------

    def check_crash(self, iteration: int, step: int = 0) -> None:
        """Raise if a crash event fires at this (iteration, step) boundary.

        Events are one-shot: a fired crash is consumed, so recovery's
        re-execution (which continues the global phase count) does not
        trip over it again.
        """
        for event in self._pending_crashes:
            if event.iteration != iteration:
                continue
            event_step = event.step if event.step is not None else 0
            if event_step != step:
                continue
            self._pending_crashes.remove(event)
            self.stats["crashes"] += 1
            if self._obs is not None:
                self._obs.emit("crash", machine=event.machine,
                               iteration=iteration, step=step)
            raise MachineCrashError(event.machine, iteration, step)

    # -- straggler injection -----------------------------------------------

    def slowdown(self, iteration: int) -> np.ndarray:
        """Per-machine compute multiplier for one phase (>= 1.0)."""
        factors = np.ones(self.num_machines, dtype=np.float64)
        for event in self.plan.stragglers:
            if event.active(iteration):
                factors[event.machine] = max(
                    factors[event.machine], event.factor
                )
        return factors

    # -- dependency loss (Section 5.1) -------------------------------------

    @property
    def dep_loss_rate(self) -> float:
        return self._dep_loss_rate

    def dep_lost(self, count: int) -> np.ndarray:
        """Which of ``count`` control-bit reads miss their dependency
        message — one draw each, in order."""
        lost = self.rng.random(count) < self._dep_loss_rate
        self.stats["dep_losses"] += int(lost.sum())
        return lost

    # -- message delivery --------------------------------------------------

    def deliver(
        self, src: int, dst: int, tag: str, nbytes: int
    ) -> Optional[DeliveryOutcome]:
        """Delivery hook for :class:`SimulatedNetwork.send`."""
        outcome = DeliveryOutcome()
        for fault in self._delivery_faults:
            if not fault.applies(tag):
                continue
            if fault.kind == "drop":
                attempts = 1
                delay = 0.0
                while self.rng.random() < fault.rate:
                    if attempts > self.max_retries:
                        self.stats["messages_dropped"] += 1
                        raise MessageLossError(
                            f"{tag} message {src}->{dst} lost after "
                            f"{self.max_retries} retries"
                        )
                    # exponential backoff before the retransmission
                    delay += self.backoff_base * (2.0 ** (attempts - 1))
                    attempts += 1
                if attempts > 1:
                    self.stats["retransmissions"] += attempts - 1
                    outcome.attempts += attempts - 1
                    outcome.delay += delay
            elif fault.kind == "delay":
                if self.rng.random() < fault.rate:
                    self.stats["messages_delayed"] += 1
                    outcome.delay += fault.delay
            elif fault.kind == "duplicate":
                if self.rng.random() < fault.rate:
                    self.stats["messages_duplicated"] += 1
                    outcome.extra_copies += 1
        return outcome

    # -- bookkeeping -------------------------------------------------------

    def note_recovery(self) -> None:
        self.stats["recoveries"] += 1

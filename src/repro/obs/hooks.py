"""The observability hub: the one ``emit`` the runtime reports into.

An :class:`ObsHub` is the single object an engine carries (attached via
``BaseEngine.attach_observer``, ``make_engine(obs=...)``, or
``RunConfig(obs=...)``).  The engines, the executors' drained events,
the async scheduler, the fault subsystem and ``Session.mutate`` call
:meth:`ObsHub.emit` with a kind of the event table
(:data:`~repro.obs.tracer.EVENT_KINDS`) and its fields.  The hub fills
in the open phase / step, moves the row's live metrics in its
:class:`~repro.obs.metrics.MetricsRegistry` and hands the event to its
:class:`~repro.obs.tracer.Tracer`, when it has one.

Overhead: with no hub, a call site pays one None check.  A hub with no
tracer (a served query's) is handed counts, not events: one
:meth:`ObsHub.tally` per merged walk (its kernel batches, dependency
hand-offs and steps) and per executor map, and none of the kinds that
feed no metric (``phase_end``, ``step_end``, ``run_end``, ...).  Its
updates go through label handles bound once per label set, each under
the registry's one lock.  What a tracer costs is measured, not
budgeted: the spine's per-layer ``obs.trace_overhead_share``.
Wall-clock spans (``seconds`` on phase, kernel-batch and executor-map
events) are measured only while a hub is attached.
:meth:`ObsHub.run_end` splits the simulated total the harness priced
into the run metrics: a hub never prices a run.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, fill_run_metrics
from repro.obs.tracer import EVENT_KINDS, Tracer

__all__ = ["ObsHub"]

_UPDATE = {"counter": "inc", "gauge": "set", "histogram": "observe"}
#: kind -> the event fields its feeds read as label values
_LABELS = {kind: sum((feed.labels for feed in row.feeds), ())
           for kind, row in EVENT_KINDS.items()}


class ObsHub:
    """Observability hub: an optional tracer plus live metrics."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # the open span, so leaf events (dep transfers, kernel batches)
        # don't need the phase/step threaded through call sites
        self._phase: Optional[int] = None
        self._step: Optional[int] = None
        self._phase_t0 = 0.0
        # (kind, label values) -> its bound feeds, on the first update:
        # a family appears in the registry only once something moved it
        self._handles: Dict[tuple, List[tuple]] = {}

    # -- construction helpers --------------------------------------------

    @classmethod
    def coerce(cls, value: Any) -> "ObsHub":
        """Accept an ObsHub, a Tracer, or a trace-file path (the hub
        then streams its trace to that JSONL file)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, (str, bytes)):
            value = Tracer(path=value)
        if isinstance(value, Tracer):
            return cls(tracer=value)
        raise ReproError(
            f"cannot build an ObsHub from {type(value).__name__}; "
            "pass an ObsHub, a Tracer, or a trace-file path"
        )

    # -- events ------------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        """Report one event of ``kind`` with its table row's fields.

        ``phase_begin`` / ``step_begin`` open the span the row's
        ``context`` keys are filled from, ``phase_end`` and ``crash``
        close it, and ``phase_end`` gets the phase's wall-clock
        ``seconds``.  With no tracer, no event dict is built.
        """
        row = EVENT_KINDS.get(kind)
        if row is None:
            raise ReproError(f"unknown event kind {kind!r}")
        if kind == "phase_begin":
            self._phase, self._step = fields["phase"], 0
            self._phase_t0 = time.perf_counter()
        elif kind == "step_begin":
            self._step = fields["step"]
        elif kind == "phase_end":
            fields["seconds"] = time.perf_counter() - self._phase_t0
        if row.feeds:
            with self.metrics.lock:
                for update, amount, _, _ in self._bound(kind, fields):
                    # amount: the field of that name, else the constant
                    update(fields.get(amount, amount))
        tracer = self.tracer
        if tracer is not None:
            # the span keys (a prefix of phase, step) go ahead of the fields
            if len(row.context) == 2:
                tracer.emit(kind, phase=self._phase, step=self._step,
                            **fields)
            elif row.context:
                tracer.emit(kind, phase=self._phase, **fields)
            else:
                tracer.emit(kind, **fields)
        if kind in ("phase_end", "crash"):  # a crash aborts the phase
            self._phase = self._step = None

    def tally(self, **kinds: Tuple[int, Dict[str, Any]]) -> None:
        """Move the feeds of each ``kind=(n, fields)`` as ``n`` events
        of it would, in one update: a counter by ``n`` times a constant
        or by the amount field (the events' total), a histogram by
        observing the field's values, a gauge set to it; a label field
        holds for all ``n``."""
        with self.metrics.lock:
            for kind, (n, fields) in kinds.items():
                for _, amount, bulk, scaled in (
                    self._bound(kind, fields) if n else ()
                ):
                    bulk(amount * n if scaled else fields[amount])

    def _bound(self, kind: str, fields: Dict[str, Any]) -> List[tuple]:
        """``kind``'s feeds at the labels in ``fields``: one event's
        update, its amount (a field or a constant), ``n`` events'
        update, and whether that moves by ``n`` times the constant."""
        key = (kind, *map(fields.__getitem__, _LABELS[kind]))
        if key not in self._handles:
            self._handles[key] = [self._bind(feed, fields)
                                  for feed in EVENT_KINDS[kind].feeds]
        return self._handles[key]

    def _bind(self, feed, fields: Dict[str, Any]) -> tuple:
        extra = {"buckets": feed.buckets} if feed.buckets else {}
        fixed = dict(feed.fixed)
        handle = getattr(self.metrics, feed.type)(
            feed.name, feed.help, labels=feed.labels + tuple(fixed), **extra,
        ).labels(**fixed, **{label: fields[label] for label in feed.labels})
        update = getattr(handle, _UPDATE[feed.type])
        return (update, feed.amount,
                handle.observe_many if feed.type == "histogram" else update,
                feed.type == "counter" and not isinstance(feed.amount, str))

    def run_end(self, engine, total: float) -> None:
        """Close out a run: fill the run metrics, and trace the summary.

        ``total`` is the run's unscaled simulated time, as
        ``engine.execution_time()`` priced it; the hub splits it and
        does not price the run again.  The ``run_end`` event feeds no
        metric, so only a tracing hub builds it.  Called once by the
        harness (or by hand after driving an engine directly).
        """
        with self.metrics.lock:
            fill_run_metrics(self.metrics, engine.counters,
                             engine.default_cost, total)
        if self.tracer is None:
            return
        # the cost model's defaults, for engines with no pricing options
        pricing = {"double_buffering": True, "schedule": "circulant",
                   **engine.pricing_keywords()}
        self.emit(
            "run_end",
            engine=engine.cost_kind,
            machines=engine.num_machines,
            summary=engine.counters.summary(),
            double_buffering=bool(pricing["double_buffering"]),
            schedule=pricing["schedule"],
        )

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()

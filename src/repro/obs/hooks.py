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

Overhead: engines guard every call site with ``if self.obs is not
None``, so a run without a hub pays one attribute load and a None check
per call site, and a hub without a tracer (a served query's) builds no
event dict.  What a tracer costs is measured, not budgeted: the
spine's per-layer ``obs.trace_overhead_share``.  Wall-clock spans
(``seconds`` on phase, kernel-batch and executor-map events) are
measured only while a hub is attached.  At the end of a run,
:meth:`ObsHub.run_end` is handed the simulated total the harness
priced and splits it into the run metrics: a hub never prices a run.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, fill_run_metrics
from repro.obs.tracer import EVENT_KINDS, Tracer

__all__ = ["ObsHub"]

_UPDATE = {"counter": "inc", "gauge": "set", "histogram": "observe"}


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
        # kind -> its feeds' (update, amount, label fields, fixed
        # labels), bound on the kind's first event: a family appears in
        # the registry only once something moved it
        self._feeds: Dict[str, List[tuple]] = {}

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
        feeds = self._feeds.get(kind)
        if feeds is None:
            feeds = self._feeds[kind] = self._bind(row.feeds)
        for update, amount, labels, fixed in feeds:
            if labels:
                fixed = {**fixed, **{label: fields[label] for label in labels}}
            # amount: the field of that name, else the constant itself
            update(fields.get(amount, amount), **fixed)
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

    def _bind(self, feeds) -> List[tuple]:
        bound = []
        for feed in feeds:
            fixed = dict(feed.fixed)
            extra = {"buckets": feed.buckets} if feed.buckets else {}
            metric = getattr(self.metrics, feed.type)(
                feed.name, feed.help, labels=feed.labels + tuple(fixed),
                **extra,
            )
            bound.append((getattr(metric, _UPDATE[feed.type]), feed.amount,
                          feed.labels, fixed))
        return bound

    def run_end(self, engine, total: float) -> None:
        """Close out a run: fill the run metrics, emit the summary event.

        ``total`` is the run's unscaled simulated time, as
        ``engine.execution_time()`` priced it; the hub splits it and
        does not price the run again.  Called once by the harness (or
        by hand after driving an engine directly).
        """
        fill_run_metrics(self.metrics, engine.counters, engine.default_cost,
                         total)
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

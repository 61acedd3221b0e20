"""Structured observability: event tracing, metrics, profiling hooks.

The paper's whole evaluation (Tables 2-7, Figures 10-11) is a set of
derived views over execution counters; this package makes those views
fall out of *one instrumented run* instead of bespoke benchmark
scripts:

* :mod:`repro.obs.tracer` — span-style JSONL event traces with a
  bounded ring buffer and a schema validator;
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry with
  JSON and Prometheus text exporters;
* :mod:`repro.obs.hooks` — the :class:`ObsHub` the engines, kernel fast
  path, and fault subsystem report into (and a registration API for
  custom profiling hooks);
* :mod:`repro.obs.attribution` — exact trace -> Counters
  reconstruction and per-(machine, step) compute/dep-wait/overlap
  attribution, flattened from the cost model's circulant timeline.

Entry points: ``RunConfig(obs=...)``, ``make_engine(obs=...)``,
``BaseEngine.attach_observer``, ``repro run --trace/--metrics``,
``repro trace``, ``repro metrics``.
"""

from repro.obs.attribution import (
    attribution_rows,
    rebuild_counters,
    reconstruct_breakdown,
)
from repro.obs.hooks import ObsHub
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    fill_run_metrics,
    registry_breakdown,
)
from repro.obs.tracer import (
    EVENT_KINDS,
    Tracer,
    read_trace,
    summarize_events,
    validate_events,
)

__all__ = [
    "ObsHub",
    "Tracer",
    "EVENT_KINDS",
    "read_trace",
    "validate_events",
    "summarize_events",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "fill_run_metrics",
    "registry_breakdown",
    "rebuild_counters",
    "reconstruct_breakdown",
    "attribution_rows",
]

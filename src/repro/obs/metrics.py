"""Metrics registry: named counters, gauges, and histograms.

Subsumes the ad-hoc reporting scattered across the runtime — the
per-tag byte totals of :class:`~repro.runtime.counters.Counters` and
the component breakdown of
:meth:`~repro.runtime.cost_model.CostModel.breakdown` — behind one
registry exportable as JSON (experiment archives) or Prometheus text
exposition format (scrape endpoints, CI artifacts).

Two usage modes:

* **live** — an :class:`~repro.obs.hooks.ObsHub` owns a registry and
  moves the metrics each event's row of the event table
  (:data:`~repro.obs.tracer.EVENT_KINDS`) names, per event or by a
  whole walk's counts, through label handles (:meth:`Metric.labels`);
* **post-hoc** — :func:`fill_run_metrics` fills the same registry
  from a finished run's counters and the simulated total its engine
  priced (``engine.execution_time()``): it splits that total, it does
  not price the run again.  :meth:`~repro.obs.hooks.ObsHub.run_end`
  calls it at the end of every hub run, and ``repro run --metrics``
  and the benchmark exporters emit what it filled.

Metric and label names follow Prometheus conventions (``repro_`` prefix,
``_total`` suffix on counters); values are plain Python numbers.  The
metrics take no lock: writers sharing a registry between threads (the
serve layer and its workers' hubs) take its one ``lock`` per update.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.runtime.counters import COMM_TAGS, Counters
from repro.runtime.cost_model import CostModel

__all__ = [
    "Metric",
    "Counter",
    "Gauge",
    "Handle",
    "Histogram",
    "MetricsRegistry",
    "fill_run_metrics",
    "registry_breakdown",
]

DEFAULT_BUCKETS = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


def _label_key(label_names: Sequence[str],
               labels: Dict[str, object]) -> Tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ReproError(
            f"expected labels {tuple(label_names)}, got {tuple(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class Metric:
    """Base class: a named family of samples keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._samples: Dict[Tuple[str, ...], float] = {}

    # -- access ----------------------------------------------------------

    def labels(self, **labels: object) -> "Handle":
        """The sample at one label set, its label values checked once:
        a handle's updates take no labels."""
        return Handle(self, _label_key(self.label_names, labels))

    def value(self, **labels: object) -> float:
        key = _label_key(self.label_names, labels)
        return self._samples.get(key, 0.0)

    def samples(self) -> List[Dict[str, object]]:
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in sorted(self._samples.items())
        ]

    # -- export ----------------------------------------------------------

    def _prom_lines(self) -> List[str]:
        lines = []
        for key, value in sorted(self._samples.items()):
            lines.append(_prom_sample(self.name, self.label_names, key,
                                      value))
        return lines


def _prom_label_str(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    body = ",".join(
        f'{n}="{v}"' for n, v in zip(names, values)
    )
    return "{" + body + "}"


def _prom_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _prom_sample(name: str, names: Sequence[str], values: Sequence[str],
                 value: float) -> str:
    return f"{name}{_prom_label_str(names, values)} {_prom_number(value)}"


class Counter(Metric):
    """Monotonically increasing sample per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self.labels(**labels).inc(amount)


class Gauge(Metric):
    """Point-in-time sample per label set."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self.labels(**labels).inc(amount)


class Histogram(Metric):
    """Cumulative-bucket histogram per label set (Prometheus layout)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labels)
        if not buckets or list(buckets) != sorted(buckets):
            raise ReproError("histogram buckets must be sorted, non-empty")
        self.buckets = tuple(float(b) for b in buckets)
        # per label key: (per-bucket counts, the last one past every
        # edge, sum, count); readers sum the counts into the cumulative
        # buckets, so an observation is one search
        self._hist: Dict[Tuple[str, ...],
                         Tuple[List[int], float, int]] = {}

    def observe(self, value: float, **labels: object) -> None:
        self.labels(**labels).observe_many((value,))

    def observe_many(self, values: Sequence[float],
                     **labels: object) -> None:
        self.labels(**labels).observe_many(values)

    def quantile(self, q: float, **labels: object) -> float:
        """The q-quantile (0..1) of one label set's observations.

        Linear interpolation inside the bucket that holds rank
        ``q * count``, as Prometheus' ``histogram_quantile`` does: the
        answer is only as fine as the bucket edges, and a rank past the
        last edge reads that edge.  0.0 when nothing was observed.
        """
        key = _label_key(self.label_names, labels)
        counts, _, n = self._hist.get(key, ((), 0.0, 0))
        rank = q * n
        lower_edge, lower_count = 0.0, 0
        for edge, count in zip(self.buckets, accumulate(counts)):
            if count >= rank:
                if count == lower_count:
                    return lower_edge
                share = (rank - lower_count) / (count - lower_count)
                return lower_edge + (edge - lower_edge) * share
            lower_edge, lower_count = edge, count
        return lower_edge

    def mean(self, **labels: object) -> float:
        """Mean of one label set's observations, 0.0 if none."""
        key = _label_key(self.label_names, labels)
        _, total, n = self._hist.get(key, ((), 0.0, 0))
        return total / n if n else 0.0

    def samples(self) -> List[Dict[str, object]]:
        out = []
        for key, (counts, total, n) in sorted(self._hist.items()):
            out.append(
                {
                    "labels": dict(zip(self.label_names, key)),
                    "buckets": {
                        _prom_number(b): c
                        for b, c in zip(self.buckets, accumulate(counts))
                    },
                    "sum": total,
                    "count": n,
                }
            )
        return out

    def _prom_lines(self) -> List[str]:
        lines = []
        names = self.label_names + ("le",)
        for key, (counts, total, n) in sorted(self._hist.items()):
            for bound, count in zip(self.buckets, accumulate(counts)):
                lines.append(
                    _prom_sample(self.name + "_bucket", names,
                                 key + (_prom_number(bound),), count)
                )
            lines.append(
                _prom_sample(self.name + "_bucket", names,
                             key + ("+Inf",), n)
            )
            lines.append(
                _prom_sample(self.name + "_sum", self.label_names, key,
                             total)
            )
            lines.append(
                _prom_sample(self.name + "_count", self.label_names, key, n)
            )
        return lines


class Handle:
    """A metric's sample at one label set (:meth:`Metric.labels`)."""

    __slots__ = ("metric", "key")

    def __init__(self, metric: Metric, key: Tuple[str, ...]) -> None:
        self.metric, self.key = metric, key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0 and self.metric.kind == "counter":
            raise ReproError("counters only go up")
        samples = self.metric._samples
        samples[self.key] = samples.get(self.key, 0.0) + float(amount)

    def set(self, value: float) -> None:
        self.metric._samples[self.key] = float(value)

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe every one of ``values`` in order: the buckets, sum
        and count one :meth:`observe` per value gives."""
        if not len(values):
            return
        hist, buckets = self.metric._hist, self.metric.buckets
        counts, total, n = hist.get(self.key) or (
            [0] * (len(buckets) + 1), 0.0, 0
        )
        for value in values:
            if value == value:  # NaN is in no bucket
                counts[bisect_left(buckets, value)] += 1
            total += float(value)
        hist[self.key] = (counts, total, n + len(values))


class MetricsRegistry:
    """Get-or-create registry of named metrics with exporters; ``lock``
    is the one lock its writers share."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self.lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Sequence[str], **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ReproError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            if existing.label_names != tuple(labels):
                raise ReproError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.label_names}"
                )
            return existing
        metric = cls(name, help, labels, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- export ----------------------------------------------------------

    def export_json(self) -> Dict[str, object]:
        return {
            "metrics": [
                {
                    "name": metric.name,
                    "kind": metric.kind,
                    "help": metric.help,
                    "samples": metric.samples(),
                }
                for _, metric in sorted(self._metrics.items())
            ]
        }

    def export_json_str(self, indent: int = 2) -> str:
        return json.dumps(self.export_json(), indent=indent)

    def export_prometheus(self) -> str:
        """Prometheus text exposition format (one block per family)."""
        lines: List[str] = []
        for _, metric in sorted(self._metrics.items()):
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric._prom_lines())
        return "\n".join(lines) + "\n"


def fill_run_metrics(
    registry: MetricsRegistry,
    counters: Counters,
    cost_model: Optional[CostModel] = None,
    total: Optional[float] = None,
) -> MetricsRegistry:
    """Fill ``registry`` from a finished run's counters.

    Populates the work/traffic totals always, and — when a cost model
    and the run's simulated ``total`` (what the engine's
    ``execution_time()`` priced) are given — the split of that total
    the paper's Figure 11 reports
    (:meth:`~repro.runtime.cost_model.CostModel.breakdown`), plus a
    per-step critical-path compute histogram: one bulk observe of the
    step maxima the split adds up.  Call once per run: the traffic
    counters are cumulative.  Takes no lock: a caller sharing the
    registry between threads holds its ``lock``.
    """
    registry.gauge(
        "repro_edges_traversed", "neighbors examined by signal UDFs"
    ).set(counters.edges_traversed)
    registry.gauge(
        "repro_vertices_processed", "vertices run through signal UDFs"
    ).set(counters.vertices_processed)
    registry.gauge(
        "repro_iterations", "engine phases recorded"
    ).set(len(counters.iterations))
    registry.gauge(
        "repro_penalty_time",
        "simulated time charged outside work records (faults, backoff)",
    ).set(counters.penalty_time)
    comm_bytes = registry.counter(
        "repro_comm_bytes_total", "remote bytes by communication tag",
        labels=("tag",),
    )
    comm_msgs = registry.counter(
        "repro_comm_messages_total",
        "remote message batches by communication tag", labels=("tag",),
    )
    for tag in COMM_TAGS:
        comm_bytes.inc(counters.bytes_by_tag[tag], tag=tag)
        comm_msgs.inc(counters.messages_by_tag[tag], tag=tag)

    if cost_model is None or total is None:
        return registry

    step_compute = registry.histogram(
        "repro_step_compute_time",
        "critical-path compute time per recorded step",
    )
    breakdown = cost_model.breakdown(counters, total,
                                     observe=step_compute.observe_many)
    registry.gauge(
        "repro_simulated_time_total", "total simulated execution time"
    ).set(breakdown["total"])
    component = registry.gauge(
        "repro_simulated_time_breakdown",
        "simulated time by cost source", labels=("component",),
    )
    for name, value in breakdown.items():
        if name != "total":
            component.set(value, component=name)
    return registry


def registry_breakdown(registry: MetricsRegistry) -> Dict[str, float]:
    """Read the cost breakdown back out of an exported registry.

    The inverse view of :func:`fill_run_metrics` — the breakdown
    table (``benchmarks/bench_breakdown.py``) reads its numbers back
    through this instead of calling the cost model itself.
    """
    total = registry.get("repro_simulated_time_total")
    component = registry.get("repro_simulated_time_breakdown")
    if total is None or component is None:
        raise ReproError(
            "registry has no simulated-time breakdown; was "
            "fill_run_metrics called with a cost model and total?"
        )
    out = {"total": total.value()}
    for sample in component.samples():
        out[sample["labels"]["component"]] = sample["value"]
    return out

"""Ablation: where the simulated time goes.

Decomposes each engine's MIS/s28 run into compute, communication,
framework overhead, and (for SympleGraph) dependency-wait.  The design
claims this supports: SympleGraph trades a small dependency-wait term
for large compute+communication savings, and double buffering is what
keeps that wait small.
"""

from __future__ import annotations

import pytest

from _shared import cached_run, options_key
from repro.bench import dataset, format_table
from repro.bench.report import emit, export_metrics
from repro.engine import GeminiEngine, SympleGraphEngine, SympleOptions
from repro.obs import MetricsRegistry, fill_run_metrics, registry_breakdown
from repro.partition import OutgoingEdgeCut
from repro.runtime import GEMINI_COST, SYMPLE_COST


def _priced(engine, cost_model):
    """Breakdown via the observability registry (the exported view):
    the engine prices its run once, the registry splits that total."""
    registry = MetricsRegistry()
    fill_run_metrics(registry, engine.counters, cost_model,
                     engine.execution_time(cost_model))
    return registry, registry_breakdown(registry)


def build_breakdown():
    from repro.algorithms import mis

    g = dataset("s28")
    rows = []
    data = {}

    gemini = GeminiEngine(OutgoingEdgeCut().partition(g, 16))
    mis(gemini, seed=1)
    registry, b = _priced(gemini, GEMINI_COST)
    export_metrics("breakdown_gemini", registry)
    data["gemini"] = b
    rows.append(_row("gemini", b))

    for label, db in (("symple (DB)", True), ("symple (no DB)", False)):
        engine = SympleGraphEngine(
            OutgoingEdgeCut().partition(g, 16),
            options=SympleOptions(double_buffering=db),
        )
        mis(engine, seed=1)
        registry, b = _priced(engine, SYMPLE_COST)
        if db:
            export_metrics("breakdown_symple", registry)
        data[label] = b
        rows.append(_row(label, b))
    return rows, data


def _row(label, b):
    return [
        label,
        f"{b['total']:,.0f}",
        f"{b['compute']:,.0f}",
        f"{b['communication']:,.0f}",
        f"{b['overhead']:,.0f}",
        f"{b['dependency_wait']:,.0f}",
    ]


@pytest.mark.benchmark(group="breakdown")
def test_time_breakdown(benchmark):
    rows, data = benchmark.pedantic(build_breakdown, rounds=1, iterations=1)
    text = format_table(
        "Time breakdown: MIS/s28, 16 machines",
        ["engine", "total", "compute", "comm", "overhead", "dep-wait"],
        rows,
        note="SympleGraph's compute+comm drop below Gemini's; double "
        "buffering keeps the dependency wait small",
    )
    emit("breakdown", text)

    gem = data["gemini"]
    db = data["symple (DB)"]
    nodb = data["symple (no DB)"]
    assert db["compute"] < gem["compute"]
    assert db["communication"] < gem["communication"]
    assert db["dependency_wait"] <= nodb["dependency_wait"]
    assert db["total"] < gem["total"]

"""Figure 11: piecewise contribution of the two optimizations.

Four SympleGraph variants over circulant scheduling: none (baseline),
double buffering (DB), differentiated propagation (DP), and DB+DP.
Expected shape (paper): DB alone helps everywhere; DP alone is roughly
neutral (synchronization still bottlenecks); DB+DP is the best.
Normalized per graph to the circulant-only baseline; geomean over the
dependency algorithms.
"""

from __future__ import annotations

import pytest

from _shared import PAPER_DATASETS, cached_run, options_key
from repro.bench import format_table, geomean
from repro.bench.report import emit

ALGOS = ("bfs", "kcore", "mis")

VARIANTS = {
    "base": options_key(differentiated=False, double_buffering=False),
    "DB": options_key(differentiated=False, double_buffering=True),
    "DP": options_key(differentiated=True, double_buffering=False),
    "DB+DP": options_key(differentiated=True, double_buffering=True),
}


def build_fig11():
    table = {}
    for ds in PAPER_DATASETS:
        base_times = {
            algo: cached_run(
                "symple", ds, algo, options_key=VARIANTS["base"]
            ).simulated_time
            for algo in ALGOS
        }
        for name, key in VARIANTS.items():
            if name == "base":
                continue
            normalized = []
            for algo in ALGOS:
                t = cached_run(
                    "symple", ds, algo, options_key=key
                ).simulated_time
                normalized.append(t / base_times[algo])
            table[(ds, name)] = geomean(normalized)
    return table


@pytest.mark.benchmark(group="fig11")
def test_fig11_optimization_breakdown(benchmark):
    table = benchmark.pedantic(build_fig11, rounds=1, iterations=1)
    rows = [
        [
            ds,
            f"{table[(ds, 'DB')]:.3f}",
            f"{table[(ds, 'DP')]:.3f}",
            f"{table[(ds, 'DB+DP')]:.3f}",
        ]
        for ds in PAPER_DATASETS
    ]
    text = format_table(
        "Figure 11: runtime normalized to circulant-only SympleGraph",
        ["Graph", "DB", "DP", "DB+DP"],
        rows,
        note=(
            "paper shape: DB < 1 everywhere, DP alone ~1, "
            "DB+DP best overall"
        ),
    )
    emit("fig11", text)

    for ds in PAPER_DATASETS:
        db = table[(ds, "DB")]
        dp = table[(ds, "DP")]
        both = table[(ds, "DB+DP")]
        assert db < 1.0, f"{ds}: DB {db:.3f}"
        assert dp < 1.05, f"{ds}: DP {dp:.3f}"  # ~neutral, never much worse
        assert both <= db + 0.03, f"{ds}: DB+DP {both:.3f} vs DB {db:.3f}"
        assert both < 1.0

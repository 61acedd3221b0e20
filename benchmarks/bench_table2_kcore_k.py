"""Table 2: K-core runtime for K in {4, 8, 16, 32, 64} on tw and fr.

Expected shape: SympleGraph's speedup over Gemini is consistent across
K (paper: 1.38x-1.62x regardless of K).
"""

from __future__ import annotations

import pytest

from _shared import cached_run
from repro.bench import format_table, geomean, speedup
from repro.bench.report import emit

KS = (4, 8, 16, 32, 64)


def build_table2():
    rows = []
    speedups = []
    for ds in ("tw", "fr"):
        for k in KS:
            gem = cached_run("gemini", ds, "kcore", num_machines=8, kcore_k=k)
            sym = cached_run("symple", ds, "kcore", num_machines=8, kcore_k=k)
            sp = speedup(gem, sym)
            speedups.append(sp)
            rows.append(
                [
                    ds,
                    k,
                    f"{gem.simulated_time:,.0f}",
                    f"{sym.simulated_time:,.0f}",
                    f"{sp:.2f}",
                ]
            )
    return rows, speedups


@pytest.mark.benchmark(group="table2")
def test_table2_kcore_vs_k(benchmark):
    rows, speedups = benchmark.pedantic(build_table2, rounds=1, iterations=1)
    text = format_table(
        "Table 2: K-core runtime vs K (8 machines, simulated units)",
        ["Graph", "K", "Gemini", "SympleG.", "Speedup"],
        rows,
        note=(
            f"geomean speedup: {geomean(speedups):.2f}x "
            "(paper: 1.42-1.62x, consistent across K)"
        ),
    )
    emit("table2", text)

    # Consistency: SympleGraph wins for every K.
    assert all(sp > 1.0 for sp in speedups)
    # ...and the spread is modest (no K where the technique collapses).
    assert max(speedups) / min(speedups) < 2.5

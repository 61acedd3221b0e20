"""Table 3: the two large web graphs (gsh, cl), Gemini vs SympleGraph.

Expected shape (paper): solid speedups on MIS / K-core / sampling for
both graphs; BFS shows *no* improvement on cl because the adaptive
switch rarely selects the bottom-up direction there, and K-means on cl
is a wash.
"""

from __future__ import annotations

import pytest

from _shared import PAPER_ALGORITHMS, cached_run
from repro.bench import format_table, speedup
from repro.bench.report import emit


def build_table3():
    rows = []
    sps = {}
    for ds in ("gsh", "cl"):
        for algo in PAPER_ALGORITHMS:
            gem = cached_run("gemini", ds, algo, num_machines=10)
            sym = cached_run("symple", ds, algo, num_machines=10)
            sp = speedup(gem, sym)
            sps[(ds, algo)] = sp
            rows.append(
                [
                    ds,
                    algo,
                    f"{gem.simulated_time:,.0f}",
                    f"{sym.simulated_time:,.0f}",
                    f"{sp:.2f}",
                ]
            )
    return rows, sps


@pytest.mark.benchmark(group="table3")
def test_table3_large_graphs(benchmark):
    rows, sps = benchmark.pedantic(build_table3, rounds=1, iterations=1)
    text = format_table(
        "Table 3: Large web graphs, 10 machines (simulated units)",
        ["Graph", "App", "Gemini", "SympleG.", "Speedup"],
        rows,
        note=(
            "paper: MIS/K-core ~1.75x, sampling 1.25-1.34x, "
            "BFS on cl 1.00x (bottom-up rarely chosen)"
        ),
    )
    emit("table3", text)

    # Dependency-heavy pull algorithms win on both graphs.
    for ds in ("gsh", "cl"):
        assert sps[(ds, "mis")] > 1.05
        assert sps[(ds, "kcore")] > 1.05
    # BFS on cl: the chain-dominated structure keeps the frontier thin,
    # so the bottom-up optimization barely engages (paper: 1.00x).
    assert sps[("cl", "bfs")] < sps[("gsh", "mis")]
    assert sps[("cl", "bfs")] < 1.3

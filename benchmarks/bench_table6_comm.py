"""Table 6: SympleGraph communication breakdown, normalized to Gemini.

Expected shape: total communication below Gemini's for BFS / K-core /
MIS / K-means (dependency messages are one bit per vertex), while
sampling's float-per-vertex dependency payload pushes its total to
around or above Gemini's — the paper's one adverse case.
"""

from __future__ import annotations

import pytest

from _shared import PAPER_ALGORITHMS, PAPER_DATASETS, cached_run
from repro.bench import format_table, geomean
from repro.bench.report import emit


def build_table6():
    rows = []
    cells = {}
    for algo in PAPER_ALGORITHMS:
        for ds in PAPER_DATASETS:
            gem = cached_run("gemini", ds, algo)
            sym = cached_run("symple", ds, algo)
            base = max(gem.total_bytes, 1)
            upd = sym.non_dep_bytes / base
            dep = sym.dep_bytes / base
            total = sym.total_bytes / base
            cells[(algo, ds)] = (upd, dep, total)
            rows.append(
                [algo, ds, f"{upd:.4f}", f"{dep:.4f}", f"{total:.4f}"]
            )
    return rows, cells


@pytest.mark.benchmark(group="table6")
def test_table6_communication_breakdown(benchmark):
    rows, cells = benchmark.pedantic(build_table6, rounds=1, iterations=1)
    totals = [t for (_, _, t) in cells.values()]
    text = format_table(
        "Table 6: SympleGraph communication (normalized to Gemini total)",
        ["App", "Graph", "SymG.upt", "SymG.dep", "SymG"],
        rows,
        note=(
            f"geomean total vs Gemini: {geomean(totals):.2f} "
            "(paper: 40.95% average reduction; sampling can exceed 1.0)"
        ),
    )
    emit("table6", text)

    for algo in ("bfs", "kcore", "mis", "kmeans"):
        for ds in PAPER_DATASETS:
            upd, dep, total = cells[(algo, ds)]
            assert total < 1.0, f"{algo}/{ds}: {total:.2f}"
            assert dep < 0.08, f"{algo}/{ds} dep share: {dep:.3f}"
    # sampling: dependency data dominates its own traffic
    for ds in PAPER_DATASETS:
        upd, dep, total = cells[("sampling", ds)]
        assert dep > upd, f"sampling/{ds}"
        assert total > 0.5

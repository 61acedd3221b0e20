"""Table 5: number of edges traversed, normalized to |E|.

Expected shape: SympleGraph traverses strictly fewer edges than Gemini
for every (algorithm, graph) pair — 66.91% average reduction in the
paper — and the reduction deepens with the graph's average degree
(s27 > s28 > s29, Section 7.3).
"""

from __future__ import annotations

import pytest

from _shared import PAPER_ALGORITHMS, PAPER_DATASETS, cached_run
from repro.bench import dataset, format_table, geomean
from repro.bench.report import emit


def build_table5():
    rows = []
    ratios = {}
    for algo in PAPER_ALGORITHMS:
        for ds in PAPER_DATASETS:
            edges = dataset(ds).num_edges
            gem = cached_run("gemini", ds, algo)
            sym = cached_run("symple", ds, algo)
            ratio = sym.edges_traversed / max(gem.edges_traversed, 1)
            ratios[(algo, ds)] = ratio
            rows.append(
                [
                    algo,
                    ds,
                    f"{gem.edges_traversed / edges:.4f}",
                    f"{sym.edges_traversed / edges:.4f}",
                    f"{ratio:.4f}",
                ]
            )
    return rows, ratios


@pytest.mark.benchmark(group="table5")
def test_table5_edges_traversed(benchmark):
    rows, ratios = benchmark.pedantic(build_table5, rounds=1, iterations=1)
    mean_reduction = 1.0 - geomean(list(ratios.values()))
    text = format_table(
        "Table 5: Edges traversed (normalized to |E|)",
        ["App", "Graph", "Gemini", "SympG.", "SympG./Gemini"],
        rows,
        note=(
            f"geomean traversal reduction: {mean_reduction:.1%} "
            "(paper: 66.91% average)"
        ),
    )
    emit("table5", text)

    # Strict subset property on every cell.
    for (algo, ds), ratio in ratios.items():
        assert ratio <= 1.0, f"{algo}/{ds}: {ratio:.3f}"
    # Aggregate reduction is substantial.
    assert mean_reduction > 0.25
    # Denser graphs save more (edge-factor ordering, Section 7.3).
    for algo in ("mis", "sampling", "kcore"):
        assert ratios[(algo, "s27")] < ratios[(algo, "s29")] + 0.02, algo

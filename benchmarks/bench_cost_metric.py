"""Section 7.4's COST metric (McSherry et al.): how many machines a
distributed system needs to outperform a lean single-thread baseline.

Paper: COST of Gemini and SympleGraph is 4 (MIS on s27 vs Galois);
SympleGraph's BFS COST on tw is 3 (vs GAPBS).  D-Galois' COST is 64.
Expected shape here: SympleGraph's COST <= Gemini's COST, both small;
D-Galois' much larger.
"""

from __future__ import annotations

import pytest

from _shared import cached_run
from repro.bench import format_table
from repro.bench.report import emit

SWEEP = (1, 2, 3, 4, 6, 8, 12, 16, 32, 64, 128)


def cost_of(engine: str, dataset_name: str, algorithm: str, baseline: float):
    for p in SWEEP:
        run = cached_run(engine, dataset_name, algorithm, num_machines=p)
        if run.simulated_time < baseline:
            return p
    return None


def build_cost():
    single = cached_run("single", "s27", "mis", num_machines=1)
    baseline = single.simulated_time
    rows = []
    costs = {}
    for engine in ("gemini", "symple", "dgalois"):
        cost = cost_of(engine, "s27", "mis", baseline)
        costs[engine] = cost
        rows.append([engine, "MIS/s27", str(cost) if cost else f">{SWEEP[-1]}"])

    bfs_single = cached_run("single", "s27", "bfs", num_machines=1)
    bfs_cost = cost_of("symple", "s27", "bfs", bfs_single.simulated_time)
    costs["symple_bfs"] = bfs_cost
    rows.append(
        ["symple", "BFS/s27", str(bfs_cost) if bfs_cost else f">{SWEEP[-1]}"]
    )
    return rows, costs


@pytest.mark.benchmark(group="cost")
def test_cost_metric(benchmark):
    rows, costs = benchmark.pedantic(build_cost, rounds=1, iterations=1)
    text = format_table(
        "COST metric: machines needed to beat the single-thread baseline",
        ["System", "Workload", "COST"],
        rows,
        note="paper: Gemini/SympleGraph COST = 4 (MIS/s27), "
        "SympleGraph BFS/tw COST = 3, D-Galois COST = 64",
    )
    emit("cost", text)

    assert costs["symple"] is not None and costs["symple"] <= 8
    assert costs["gemini"] is not None and costs["gemini"] <= 8
    assert costs["symple"] <= costs["gemini"]
    # D-Galois pays a much higher entry fee (or never gets there).
    assert costs["dgalois"] is None or costs["dgalois"] >= 2 * costs["gemini"]

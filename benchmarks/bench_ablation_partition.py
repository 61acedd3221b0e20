"""Ablation: partition strategy sweep (the paper's D-Galois protocol).

Section 7.1: "We follow the optimization instructions in D-Galois by
running all partition strategies provided and report the best one as
the baseline."  This bench runs that sweep for the D-Galois engine and
also reports SympleGraph over its canonical edge-cut against the
alternative partitions — demonstrating the paper's claim that the
dependency technique applies to vertex-cut too (Section 2.2).
"""

from __future__ import annotations

import pytest

from repro.bench import dataset, format_table
from repro.bench.report import emit
from repro.engine import DGaloisEngine, SympleGraphEngine, SympleOptions
from repro.partition import (
    CartesianVertexCut,
    HashVertexCut,
    HybridCut,
    OutgoingEdgeCut,
)

STRATEGIES = {
    "cartesian-vc": CartesianVertexCut(),
    "hash-vc": HashVertexCut(),
    "outgoing-ec": OutgoingEdgeCut(),
    "hybrid": HybridCut(threshold=8),
}


def build_sweep():
    from repro.algorithms import mis

    g = dataset("s27")
    rows = []
    times = {}
    for name, strategy in STRATEGIES.items():
        part_d = strategy.partition(g, 16)
        dgalois = DGaloisEngine(part_d)
        mis(dgalois, seed=1)
        t_d = dgalois.execution_time()

        part_s = strategy.partition(g, 16)
        symple = SympleGraphEngine(
            part_s, options=SympleOptions(degree_threshold=4)
        )
        mis(symple, seed=1)
        t_s = symple.execution_time()

        times[name] = (t_d, t_s)
        rows.append([name, f"{t_d:,.0f}", f"{t_s:,.0f}"])
    return rows, times


@pytest.mark.benchmark(group="ablation-partition")
def test_partition_sweep(benchmark):
    rows, times = benchmark.pedantic(build_sweep, rounds=1, iterations=1)
    best_d = min(times.values(), key=lambda t: t[0])[0]
    text = format_table(
        "Ablation: partition strategies, MIS/s27, 16 machines",
        ["partition", "D-Galois", "SympleGraph"],
        rows,
        note=(
            "D-Galois baseline = best partition (the paper's protocol); "
            "SympleGraph's dependency propagation works on every strategy"
        ),
    )
    emit("ablation_partition", text)

    # SympleGraph beats D-Galois' best partition on each strategy.
    for name, (t_d, t_s) in times.items():
        assert t_s < t_d, name
    # ...and even against D-Galois' best overall.
    assert min(t_s for _, t_s in times.values()) < best_d

"""Ablation: the differentiated-propagation degree threshold.

The paper tunes the threshold by sweeping powers of two and settles on
32 for its billion-edge graphs (Section 6).  This bench repeats the
sweep at reproduction scale; DESIGN.md documents that the sweep picks a
proportionally smaller default here.  Expected shape: a shallow optimum
— small thresholds keep nearly all of the dependency savings, very
large thresholds degrade toward the no-propagation behaviour.
"""

from __future__ import annotations

import pytest

from _shared import cached_run
from repro.bench import format_table, geomean
from repro.engine.symple import DEFAULT_DEGREE_THRESHOLD
from repro.engine import SympleOptions
from repro.api import RunConfig, Session
from repro.bench import dataset
from repro.bench.report import emit

THRESHOLDS = (2, 4, 8, 16, 32, 64)
ALGOS = ("mis", "kcore")
DATASET = "s28"


def build_sweep():
    base = RunConfig(engine="symple", machines=16, kcore_k=2, seed=1)
    times = {}
    with Session(dataset(DATASET), base) as session:
        for th in THRESHOLDS:
            options = SympleOptions(degree_threshold=th)
            times[th] = [
                session.run(algorithm=algo, options=options).simulated_time
                for algo in ALGOS
            ]
    return times


@pytest.mark.benchmark(group="ablation-threshold")
def test_threshold_sweep(benchmark):
    times = benchmark.pedantic(build_sweep, rounds=1, iterations=1)
    base = times[THRESHOLDS[0]]
    rows = [
        [th] + [f"{t:,.0f}" for t in times[th]]
        + [f"{geomean([t / b for t, b in zip(times[th], base)]):.3f}"]
        for th in THRESHOLDS
    ]
    text = format_table(
        f"Ablation: degree threshold sweep ({DATASET}, 16 machines)",
        ["threshold", "MIS", "K-core", "vs th=2"],
        rows,
        note=(
            f"repo default: {DEFAULT_DEGREE_THRESHOLD} "
            "(paper picked 32 at 1000x larger scale by the same sweep)"
        ),
    )
    emit("ablation_threshold", text)

    geo = {
        th: geomean([t / b for t, b in zip(times[th], base)])
        for th in THRESHOLDS
    }
    # the default must be within a few percent of the sweep's best
    best = min(geo.values())
    assert geo[DEFAULT_DEGREE_THRESHOLD] <= best + 0.05
    # the largest threshold is measurably worse than the best
    assert geo[THRESHOLDS[-1]] > best + 0.05

"""Where the async bucket schedule wins: sync vs async simulated time.

Every ``mode="async"`` run is :class:`~repro.algorithms.relax.RelaxProgram`
under priority buckets, so it reaches the sync run's fixpoint bit for
bit; what the schedule changes is how much work and how many phases it
spends getting there.  This table runs ``bfs``, ``cc`` and ``sssp`` both
ways on the ``symple`` and ``gemini`` engines at 8 machines, over a
low-diameter R-MAT and a high-diameter 64x64 grid, at the default
bucket width.

Expected shape: on the R-MAT the schedules are within a few percent of
each other; on the grid, where a sweep needs many supersteps, the
buckets batch the front and async wins.  Every async fixpoint equals
its sync one, and each algorithm's async schedule wins on at least one
row (the regime that keeps it).

Usage::

    python benchmarks/bench_async_schedule.py

Also runnable under pytest (``pytest benchmarks/bench_async_schedule.py
--benchmark-only``).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

import pytest

from repro.algorithms import bfs
from repro.api import RunConfig, Session
from repro.bench import format_table
from repro.bench.report import emit
from repro.engine import make_engine
from repro.graph import grid_graph, random_weights, rmat, to_undirected

MACHINES = 8
ALGORITHMS = ("bfs", "cc", "sssp")
ENGINES = ("symple", "gemini")
#: single-source runs start here: the grid's corner, so a sweep
#: crosses the whole diameter (vertex 0 of the R-MAT has edges)
SOURCE = 0


def graphs():
    return {
        "rmat-11": to_undirected(rmat(scale=11, edge_factor=8, seed=1)),
        "grid-64x64": grid_graph(64, 64),
    }


def _run(graph, engine: str, algorithm: str, mode: str):
    sourced = {"sources": (SOURCE,)} if algorithm != "cc" else {}
    config = RunConfig(
        engine=engine, algorithm=algorithm, machines=MACHINES, seed=1,
        mode=mode, **sourced,
    )
    with Session(graph, config) as session:
        return session.run()


def build_table() -> Tuple[List[List[object]], Dict[str, bool], bool]:
    rows: List[List[object]] = []
    wins = {algorithm: False for algorithm in ALGORITHMS}
    same = True
    for name, graph in graphs().items():
        depth = bfs(make_engine("single", graph, 1), SOURCE).depth.max()
        weighted = random_weights(graph, seed=1)
        for algorithm in ALGORITHMS:
            g = weighted if algorithm == "sssp" else graph
            for engine in ENGINES:
                sync = _run(g, engine, algorithm, "sync")
                awr = _run(g, engine, algorithm, "async")
                same &= sync.fixpoint is not None
                same &= awr.fixpoint == sync.fixpoint
                ratio = awr.simulated_time / sync.simulated_time
                wins[algorithm] |= ratio < 1.0
                rows.append([
                    f"{name} (ecc {depth})", algorithm, engine,
                    f"{sync.simulated_time:,.0f}",
                    f"{awr.simulated_time:,.0f}",
                    f"{ratio:.3f}",
                    int(awr.extra["async_buckets"]),
                ])
    return rows, wins, same


def render(rows) -> str:
    return format_table(
        f"Async bucket schedule vs sync supersteps ({MACHINES} machines, "
        "simulated units)",
        ["graph", "algorithm", "engine", "sync", "async", "async/sync",
         "buckets"],
        rows,
        note=(
            "default bucket width, seed 1; sssp on uniform [0, 1) "
            f"weights; bfs / sssp from vertex {SOURCE} (ecc: its BFS "
            "eccentricity); every async fixpoint equals the sync one"
        ),
    )


@pytest.mark.benchmark(group="async_schedule")
def test_async_schedule(benchmark):
    rows, wins, same = benchmark.pedantic(build_table, rounds=1,
                                          iterations=1)
    emit("async_schedule", render(rows))
    assert same, "an async fixpoint differs from its sync one"
    assert all(wins.values()), f"no winning regime: {wins}"


def main() -> int:
    rows, wins, same = build_table()
    emit("async_schedule", render(rows))
    return 0 if same and all(wins.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

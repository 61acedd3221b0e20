"""Shared experiment protocol for the paper-table benchmarks.

Expensive (engine, algorithm, dataset) runs are cached per process so
Tables 4, 5 and 6 — which report different columns of the same
experiment matrix — only execute it once.  Every bench prints a
paper-style table and writes it to ``benchmarks/results/`` through
:func:`repro.bench.report.emit`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from repro.api import RunConfig, Session
from repro.bench import RunResult, dataset
from repro.engine import SympleOptions

PAPER_DATASETS = ("tw", "fr", "s27", "s28", "s29")
PAPER_ALGORITHMS = ("bfs", "kcore", "mis", "kmeans", "sampling")

# Experiment protocol, scaled down from the paper's 64 roots / 20 reps.
BFS_ROOTS = 2
KMEANS_ROUNDS = 1
KCORE_K = 2  # 2-core, the SCC subroutine the paper highlights


@lru_cache(maxsize=None)
def cached_run(
    engine: str,
    dataset_name: str,
    algorithm: str,
    num_machines: int = 16,
    options_key: Optional[Tuple] = None,
    seed: int = 1,
    kcore_k: int = KCORE_K,
) -> RunResult:
    """Run one experiment, memoized on its full configuration."""
    options = None
    if options_key is not None:
        differentiated, double_buffering, schedule = options_key
        options = SympleOptions(
            differentiated=differentiated,
            double_buffering=double_buffering,
            schedule=schedule,
        )
    config = RunConfig(
        engine=engine,
        algorithm=algorithm,
        machines=num_machines,
        seed=seed,
        options=options,
        bfs_roots=BFS_ROOTS,
        kcore_k=kcore_k,
        kmeans_rounds=KMEANS_ROUNDS,
    )
    with Session(dataset(dataset_name), config) as session:
        return session.run()


def options_key(
    differentiated: bool = True,
    double_buffering: bool = True,
    schedule: str = "circulant",
) -> Tuple:
    return (differentiated, double_buffering, schedule)


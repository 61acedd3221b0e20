"""Fault-tolerance overhead sweep: checkpoint interval x crash schedule.

For each checkpoint interval the sweep runs K-core and BFS on the
SympleGraph engine under an injected machine crash, and reports the
simulated-time overhead against the fault-free run, the checkpoint
traffic, and the recovery work.  Every faulted run is asserted to be
result-identical to its fault-free twin — the recovery guarantee the
unit suite checks in miniature, exercised here at benchmark scale.

Usage::

    python benchmarks/bench_fault_overhead.py            # full sweep
    python benchmarks/bench_fault_overhead.py --smoke    # CI-sized

Also runnable under pytest (``pytest benchmarks/bench_fault_overhead.py``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import Checkpointing, RunConfig, Session
from repro.bench import dataset, format_table
from repro.bench.report import emit
from repro.fault import CrashFault, FaultPlan

FULL = {
    "dataset": "s27",
    "intervals": (0, 1, 4, 16),
    "crash_iteration": 1,  # kcore/s27 converges in 2 rounds; crash in round 2
    "kcore_k": 2,
}
SMOKE = {
    "dataset": "tw",
    "intervals": (0, 2),
    "crash_iteration": 2,
    "kcore_k": 2,
}


def _run(algorithm: str, config: dict, plan: Optional[FaultPlan],
         interval: int):
    run_config = RunConfig(
        engine="symple",
        algorithm=algorithm,
        machines=8,
        seed=1,
        bfs_roots=1,
        kcore_k=config["kcore_k"],
        faults=plan,
        checkpointing=Checkpointing(interval=interval),
    )
    with Session(dataset(config["dataset"]), run_config) as session:
        return session.run()


def build_sweep(config: dict):
    rows: List[List[object]] = []
    checks: List[bool] = []
    for algorithm in ("kcore", "bfs"):
        baseline = _run(algorithm, config, None, 0)
        # kcore's pull is circulant: crash mid-circulation (step 1);
        # BFS alternates push/pull, so crash at the phase boundary.
        step = 1 if algorithm == "kcore" else None
        plan = FaultPlan(
            seed=7,
            crashes=(
                CrashFault(
                    machine=1, iteration=config["crash_iteration"], step=step
                ),
            ),
        )
        for interval in config["intervals"]:
            run = _run(algorithm, config, plan, interval)
            overhead = run.simulated_time / baseline.simulated_time - 1.0
            ckpt_bytes = run.total_bytes - baseline.total_bytes
            checks.append(_same_result(algorithm, baseline, run))
            rows.append(
                [
                    algorithm,
                    interval or "off",
                    f"{int(run.extra.get('fault_recoveries', 0))}",
                    f"{int(run.extra.get('fault_replayed_supersteps', 0))}",
                    f"{ckpt_bytes:,}",
                    f"{overhead * 100.0:+.1f}%",
                ]
            )
    return rows, checks


def _same_result(algorithm: str, baseline, run) -> bool:
    """Faulted and fault-free runs must agree on the algorithm output."""
    if algorithm == "kcore":
        keys = ("core_size", "rounds")
    else:
        keys = ("avg_reached",)
    return all(baseline.extra[k] == run.extra[k] for k in keys)


def run_bench(config: dict) -> int:
    rows, checks = build_sweep(config)
    text = format_table(
        f"Fault-tolerance overhead ({config['dataset']}, 8 machines, "
        f"crash at iteration {config['crash_iteration']})",
        ["algorithm", "ckpt.every", "recoveries", "replayed", "extra.bytes",
         "time.overhead"],
        rows,
        note="interval 'off' recovers by restart-from-scratch; "
        "results are identical to the fault-free run in every row",
    )
    emit("fault_overhead", text)
    if not all(checks):
        print("ERROR: a faulted run diverged from the fault-free result")
        return 1
    return 0


def test_fault_overhead_sweep():
    """Pytest entry point (smoke-sized so suites stay fast)."""
    assert run_bench(SMOKE) == 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small dataset and fewer intervals (CI-sized)",
    )
    args = parser.parse_args(argv)
    return run_bench(SMOKE if args.smoke else FULL)


if __name__ == "__main__":
    sys.exit(main())

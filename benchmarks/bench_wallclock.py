"""Real wall-clock speedup of the batched kernel layer.

Unlike the paper-table benches (which report *simulated* cost-model
time), this bench times the Python process itself: the same algorithm
on the same partition with ``use_kernels`` on vs off, asserting along
the way that results, per-iteration counters, and network traffic are
bit-identical — the kernel layer is only allowed to change how fast the
answer appears, never the answer.

Default configuration is the acceptance microbench: bottom-up BFS on a
100k-vertex random undirected graph over 4 machines (target: >= 5x).
``--all`` times all five classified algorithms; ``--smoke`` runs a
small graph and exits nonzero if the kernel path is slower than the
interpreter or any equivalence check fails (the CI perf gate).

``--executors`` sweeps the executor backends instead: the same run
under serial and process, verifying bit-identical results and
reporting the wall-clock ratio against serial.  Each backend reuses
ONE executor instance: the first run is reported as *cold* (pool
spawn + topology publish included) and the median of the ``--repeats``
subsequent runs as *warm* (steady state of a long-lived Session).  The
>= 1.5x process-vs-serial floor is armed **unconditionally** on the
warm numbers — warm-pool reuse is the whole point of the process
backend, and a regression should fail CI regardless of core count.

Writes ``benchmarks/results/BENCH_wallclock.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

import numpy as np

from repro.engine.symple import SympleGraphEngine, SympleOptions
from repro.graph.generators import erdos_renyi
from repro.graph.transform import to_undirected
from repro.partition.edge_cut import OutgoingEdgeCut

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# package __init__ re-exports shadow the submodules, so import by path
bfs_mod = importlib.import_module("repro.algorithms.bfs")
cc_mod = importlib.import_module("repro.algorithms.cc")
kcore_mod = importlib.import_module("repro.algorithms.kcore")
mis_mod = importlib.import_module("repro.algorithms.mis")
pr_mod = importlib.import_module("repro.algorithms.pagerank")

ALGORITHMS = {
    "bfs_bottomup": lambda eng: bfs_mod.bfs(eng, 0, mode="bottomup"),
    "mis": lambda eng: mis_mod.mis(eng, seed=3),
    "kcore": lambda eng: kcore_mod.kcore(eng, 3),
    "pagerank": lambda eng: pr_mod.pagerank(eng, iterations=10),
    "cc": lambda eng: cc_mod.connected_components(eng),
}


def _result_arrays(result) -> dict:
    """Every ndarray field of a result dataclass, for bit-comparison."""
    return {
        name: value
        for name, value in vars(result).items()
        if isinstance(value, np.ndarray)
    }


def _identical(eng_a, res_a, eng_b, res_b) -> dict:
    arrays_a = _result_arrays(res_a)
    arrays_b = _result_arrays(res_b)
    return {
        "results": all(
            np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a
        )
        and arrays_a.keys() == arrays_b.keys(),
        "counters": eng_a.counters.summary() == eng_b.counters.summary(),
        "traffic": all(
            np.array_equal(eng_a.network.traffic[t], eng_b.network.traffic[t])
            for t in eng_a.network.traffic
        ),
        "messages": all(
            np.array_equal(
                eng_a.network.message_counts[t],
                eng_b.network.message_counts[t],
            )
            for t in eng_a.network.message_counts
        ),
    }


def bench_one(partition, algorithm: str, repeats: int) -> dict:
    """Time one algorithm with kernels on vs off; verify equivalence."""
    run = ALGORITHMS[algorithm]

    def timed(use_kernels: bool):
        best = float("inf")
        engine = result = None
        for _ in range(repeats):
            engine = SympleGraphEngine(
                partition, SympleOptions(use_kernels=use_kernels)
            )
            t0 = time.perf_counter()
            result = run(engine)
            best = min(best, time.perf_counter() - t0)
        return best, engine, result

    t_kernel, eng_k, res_k = timed(True)
    t_interp, eng_i, res_i = timed(False)
    checks = _identical(eng_k, res_k, eng_i, res_i)
    return {
        "algorithm": algorithm,
        "seconds_kernel": t_kernel,
        "seconds_interpreter": t_interp,
        "speedup": t_interp / t_kernel if t_kernel > 0 else float("inf"),
        "identical": checks,
    }


EXECUTORS = ("serial", "process")


def true_cores() -> int:
    """CPUs actually schedulable for this process, not the machine's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def bench_executors(partition, algorithm: str, repeats: int,
                    workers: int) -> dict:
    """Time one algorithm per executor backend; verify equivalence.

    One executor instance per backend, reused across ``1 + repeats``
    runs: run 0 is the cold time (pool spawn + topology publish for the
    process backend), the median of the rest is the warm steady state —
    what a long-lived Session (or ``repro serve``) actually pays.
    """
    run = ALGORITHMS[algorithm]

    def timed(executor):
        from repro.exec import make_executor

        ex = make_executor(
            executor, workers=None if executor == "serial" else workers
        )
        engine = result = None
        times = []
        for _ in range(1 + repeats):
            engine = SympleGraphEngine(
                partition, SympleOptions(), executor=ex
            )
            t0 = time.perf_counter()
            result = run(engine)
            times.append(time.perf_counter() - t0)
        stats = ex.stats()
        ex.close()
        cold = times[0]
        warm = float(np.median(times[1:])) if repeats else cold
        return cold, warm, engine, result, stats

    _, w_serial, eng_s, res_s, _ = timed("serial")
    row = {
        "algorithm": algorithm,
        "workers": workers,
        "repeats": repeats,
        "seconds_cold": {},
        "seconds_warm": {"serial": w_serial},
        "speedup_vs_serial": {"serial": 1.0},
        "identical": {},
    }
    cold, warm, eng, res, stats = timed("process")
    row["seconds_cold"]["process"] = cold
    row["seconds_warm"]["process"] = warm
    row["speedup_vs_serial"]["process"] = (
        w_serial / warm if warm > 0 else float("inf")
    )
    row["identical"]["process"] = _identical(eng_s, res_s, eng, res)
    # arena traffic: publish bytes are cumulative over all
    # 1 + repeats runs; spawns > 1 would mean the pool died
    row["process_stats"] = stats
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=100_000)
    parser.add_argument("--avg-degree", type=int, default=8)
    parser.add_argument("--machines", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument(
        "--all", action="store_true",
        help="time all five classified algorithms, not just bottom-up BFS",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small CI gate: fail if kernels are slower or not equivalent",
    )
    parser.add_argument(
        "--executors", action="store_true",
        help="sweep executor backends (serial/process) instead "
        "of the kernel on/off comparison",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker count for the process backend (default: 4)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.vertices = min(args.vertices, 8_000)

    graph = to_undirected(
        erdos_renyi(args.vertices, args.avg_degree * args.vertices, args.seed)
    )
    partition = OutgoingEdgeCut().partition(graph, args.machines)
    algorithms = list(ALGORITHMS) if args.all else ["bfs_bottomup"]

    rows = []
    failed = False
    if args.executors:
        # the 1.5x warm-run floor is armed unconditionally: warm-pool
        # reuse must win even on modest runners, and a regression
        # should fail CI rather than hide behind a core-count check
        cores = true_cores()
        floor_algorithms = {"bfs_bottomup", "cc"}
        for algorithm in algorithms:
            row = bench_executors(
                partition, algorithm, args.repeats, args.workers
            )
            rows.append(row)
            ok = all(
                all(checks.values()) for checks in row["identical"].values()
            )
            failed |= not ok
            line = f"{algorithm:>14}:"
            for backend in EXECUTORS:
                warm = row["seconds_warm"][backend]
                line += (
                    f"  {backend} {warm:7.3f}s"
                    f" ({row['speedup_vs_serial'][backend]:4.2f}x)"
                )
            cold = row["seconds_cold"].get("process")
            print(
                line
                + f"  cold(process) {cold:7.3f}s"
                + f"  identical={'yes' if ok else 'NO'}"
            )
            if (
                algorithm in floor_algorithms
                and row["speedup_vs_serial"]["process"] < 1.5
            ):
                print(
                    f"{algorithm}: warm process backend below the 1.5x "
                    f"floor on {cores} cores "
                    f"({row['speedup_vs_serial']['process']:.2f}x)"
                )
                failed = True
    else:
        for algorithm in algorithms:
            row = bench_one(partition, algorithm, args.repeats)
            rows.append(row)
            ok = all(row["identical"].values())
            failed |= not ok
            print(
                f"{algorithm:>14}: interpreter "
                f"{row['seconds_interpreter']:8.3f}s"
                f"  kernels {row['seconds_kernel']:8.3f}s"
                f"  speedup {row['speedup']:6.2f}x"
                f"  identical={'yes' if ok else 'NO'}"
            )
            if args.smoke and row["speedup"] < 1.0:
                print(f"{algorithm}: kernel path slower than the interpreter")
                failed = True

    payload = {
        "config": {
            "vertices": args.vertices,
            "avg_degree": args.avg_degree,
            "machines": args.machines,
            "seed": args.seed,
            "repeats": args.repeats,
            "smoke": args.smoke,
            "mode": "executors" if args.executors else "kernels",
            "workers": args.workers if args.executors else None,
            "cores": true_cores(),
            "cores_machine": os.cpu_count(),
        },
        "rows": rows,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_wallclock.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The benchmark spine: one command, six workloads, two passes.

    python benchmarks/spine/run.py                      # everything
    python benchmarks/spine/run.py --workload bfs_skew  # one workload
    python benchmarks/spine/run.py --smoke              # scale 10, < 30 s

Without ``--trace`` every selected workload runs in its own fresh
subprocess, first untraced (end-to-end metrics) and then traced
(per-layer metrics); the results land in ``out/results.json`` with the
hardware context.  With ``--workload NAME --trace 0|1`` this process
*is* that subprocess: it runs one pass of one workload and prints one
JSON object as its last line, which is also how the growth driver
calls it.  Metric names, units, directions and bounds live in the
root ``BENCHMARK.json`` and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected.json")
PINNED_SEEDS = (7, 11)
#: a smoke pass is sized by repeats, not by time
SMOKE_SECONDS = 0.0


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def label_of(smoke: bool) -> str:
    return "smoke" if smoke else "full"


# -- one pass of one workload (the child / driver entry) -------------------

PR_SET_CHILD_SUBREAPER = 36
REAP_GRACE_S = 10.0


def adopt_orphans() -> None:
    """Make descendants orphaned during the pass children of this
    process, so :func:`reap_children` can wait for them too."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
        )
    except (OSError, AttributeError):  # not Linux: direct children only
        pass


def child_pids() -> List[int]:
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                # pid (comm) state ppid ...; comm may hold spaces
                ppid = fh.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def reap_children() -> None:
    """Leave no process behind: every path out of a pass ends here.

    ``multiprocessing.shared_memory`` (the process executor's arenas)
    starts a resource-tracker process that only exits once this process
    has; nothing reaps it then, and it stays in the process table as a
    zombie.  Stop it here, then wait for whatever else is still a child
    (SIGTERM at once, SIGKILL after a grace period).
    """
    import signal
    import time
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
        except OSError:
            pass
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left, running or zombie
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            deadline = float("inf")
        time.sleep(0.01)


def run_pass(name: str, seed: int, seconds: float, trace: int,
             smoke: bool, repin: bool) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"spine: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import measure
    import workloads

    manifest = load_manifest()
    workload = workloads.make_workload(name, seed, smoke)
    runner = measure.run_traced if trace else measure.run_untraced
    out = runner(workload, seconds)

    pins = load_pins().get(label_of(smoke), {}).get(str(seed), {})
    observation = json.loads(json.dumps(out.pinned))
    if name in pins and pins[name] != observation and not repin:
        out.fail(f"{name} differs from expected.json for seed {seed}")

    wanted = manifest["per_layer" if trace else "end_to_end"]
    unknown = set(out.metrics) - {m["name"] for m in wanted}
    if unknown:
        raise SystemExit(f"spine: metrics not in BENCHMARK.json: {unknown}")
    result = {
        "correct": out.correct(),
        "attempted": out.attempted,
        "failed": out.failed,
        # a layer this workload does not exercise reports 0
        "metrics": {
            m["name"]: {
                "value": float(out.metrics.get(m["name"], 0.0)),
                "unit": m["unit"],
            }
            for m in wanted
        },
    }
    os.makedirs(OUT, exist_ok=True)
    detail = {
        "workload": name, "seed": seed, "trace": trace,
        "label": label_of(smoke), "result": result,
        "observation": observation, "problems": out.problems,
        "samples": out.samples,
    }
    with open(os.path.join(OUT, f"pass_{name}_{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if trace:
        with open(os.path.join(OUT, f"trace_{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed,
                       "spans": out.spans}, fh)
    for problem in out.problems:
        print(f"spine: {name}: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def load_pins() -> Dict[str, Any]:
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


# -- every workload, both passes (the parent) -------------------------------


def context() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    sys.path.insert(0, HERE)
    import hostref
    import numpy

    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "reference_nominal_s": hostref.NOMINAL_S,
        "reference_s": min(hostref.reference() for _ in range(5)),
    }


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def child(name: str, seed: int, seconds: float, trace: int,
          smoke: bool, repin: bool) -> Optional[Dict[str, Any]]:
    """Run one pass in a fresh interpreter; None if it printed nothing."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    if repin:
        argv.append("--repin")
    proc = subprocess.run(argv, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"spine: {name} (trace {trace}) exited {proc.returncode} "
              "without a result", file=sys.stderr)
        return None


def run_all(names: List[str], seed: int, seconds: float, runs: int,
            smoke: bool, repin: bool) -> int:
    before = shm_segments()
    records = []
    failures = 0
    for name in names:
        for trace in (0, 1):
            for i in range(runs if trace == 0 else 1):
                result = child(name, seed + i, seconds, trace, smoke, repin)
                if result is None or not result["correct"]:
                    failures += 1
                if result is not None:
                    records.append({"workload": name, "seed": seed + i,
                                    "trace": trace, "result": result})
                    report(name, seed + i, trace, result)
    leaked = sorted(shm_segments() - before)
    if leaked:
        failures += 1
        print(f"spine: /dev/shm segments left behind: {leaked}",
              file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "results.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "schema": "spine/1", "label": label_of(smoke),
            "seconds": seconds, "context": context(),
            "shm_leaked": leaked, "runs": records,
        }, fh, indent=1)
    print(f"spine: {label_of(smoke)} results -> {path}")
    if repin and not failures:
        write_pins(names, seed, smoke)
    return 1 if failures else 0


def report(name: str, seed: int, trace: int,
           result: Dict[str, Any]) -> None:
    """Every metric by name with its unit; layer seconds with a share."""
    print(f"== {name}  seed {seed}  "
          f"{'traced (per-layer)' if trace else 'untraced (end-to-end)'}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"{'ok' if result['correct'] else 'INCORRECT'}")
    metrics = result["metrics"]
    whole = metrics.get("bench.traced_run_s", {}).get("value", 0.0)
    for name_, entry in metrics.items():
        value, unit = entry["value"], entry["unit"]
        if trace and value == 0.0:
            continue
        line = f"   {name_:<40} {value:>16.6g} {unit}"
        if (trace and unit == "s" and whole
                and not name_.startswith(("bench.", "graph.generate",
                                          "partition.build", "analysis.",
                                          "exec.cold"))):
            line += f"   ({value / whole:6.1%} of the traced run)"
        print(line)


def write_pins(names: List[str], seed: int, smoke: bool) -> None:
    pins = load_pins()
    slot = pins.setdefault(label_of(smoke), {}).setdefault(str(seed), {})
    for name in names:
        with open(os.path.join(OUT, f"pass_{name}_0.json"),
                  encoding="utf-8") as fh:
            slot[name] = json.load(fh)["observation"]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"spine: pinned {names} for seed {seed} -> {EXPECTED}")


def main(argv: Optional[List[str]] = None) -> int:
    manifest_names = [w["name"] for w in load_manifest()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=manifest_names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                        "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE pass in this process and print one "
                        "JSON result line (needs --workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 10, fewest repeats; labelled 'smoke'")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, seeds SEED, "
                        "SEED+1, ... (a set for compare.py)")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite expected.json for --seed "
                        f"(pinned seeds: {PINNED_SEEDS})")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = (SMOKE_SECONDS if args.smoke
                   else float(load_manifest()["run_seconds"]))
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        adopt_orphans()
        try:
            return run_pass(args.workload, args.seed, seconds, args.trace,
                            args.smoke, args.repin)
        finally:
            reap_children()
    names = [args.workload] if args.workload else manifest_names
    return run_all(names, args.seed, seconds, args.runs, args.smoke,
                   args.repin)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)

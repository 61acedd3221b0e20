"""Checks of the benchmark spine itself, on its smoke sizes.

Run explicitly with ``python -m pytest benchmarks/spine``; tier-1 only
collects ``tests/``.  One smoke run (all six workloads, both passes)
is shared by every test.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
SPANNED = ("bfs_skew", "bfs_gemini", "pagerank_dense", "kcore_process",
           "dyn_stream")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(os.path.join(OUT, "results.json"), encoding="utf-8") as fh:
        results = json.load(fh)
    assert results["label"] == "smoke"
    assert results["shm_leaked"] == []
    return {(r["workload"], r["trace"]): r["result"] for r in results["runs"]}


def test_every_named_metric_is_reported_with_its_unit(smoke, manifest):
    for workload in (w["name"] for w in manifest["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = smoke[(workload, trace)]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in manifest[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, (workload, trace)
    for workload in (w["name"] for w in manifest["workloads"]):
        for value in smoke[(workload, 0)]["metrics"].values():
            assert value["value"] > 0  # an end-to-end metric is never 0


def test_spans_cover_the_traced_seconds(smoke):
    for workload in SPANNED:
        coverage = smoke[(workload, 1)]["metrics"]["bench.span_coverage"]
        assert coverage["value"] >= 0.95, workload


def test_the_workloads_separate_the_layers(smoke):
    def layer(workload, name):
        return smoke[(workload, 1)]["metrics"][name]["value"]

    for workload in ("bfs_skew", "kcore_process", "pagerank_dense"):
        assert layer(workload, "engine.dep_share") > 0
    assert layer("bfs_gemini", "engine.dep_share") == 0
    assert layer("bfs_skew", "runtime.sim_speedup_vs_gemini") > 1
    assert layer("kcore_process", "exec.spawns") == 1
    assert layer("serve_hot", "serve.engine_run_p50_ms") > 0
    assert layer("serve_hot", "serve.http_overhead_p50_ms") > 0
    assert layer("dyn_stream", "partition.refresh_s") > 0


#: adopts whatever a pass orphans, then reports whether anything is left
ORPHAN_PROBE = """
import ctypes, os, subprocess, sys, time
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
time.sleep(0.5)
try:
    os.waitpid(-1, os.WNOHANG)
    sys.exit("a process outlived the pass")
except ChildProcessError:
    sys.exit(code)
"""


@pytest.mark.parametrize("workload", ["kcore_process", "serve_hot"])
def test_a_pass_leaves_no_process_behind(workload):
    proc = subprocess.run(
        [sys.executable, "-c", ORPHAN_PROBE, sys.executable,
         os.path.join(HERE, "run.py"), "--smoke", "--workload", workload,
         "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_span_self_times_are_non_negative_and_spans_nest(smoke):
    for workload in SPANNED:
        path = os.path.join(OUT, f"trace_{workload}.json")
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        assert spans, workload
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["self"] >= -1e-9, (workload, span)
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]

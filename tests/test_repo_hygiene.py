"""Repository hygiene: result artifacts must never live inside src/.

Benchmark outputs (``BENCH_*.json``, metrics exports, trace files,
fault-overhead reports) belong under ``benchmarks/results/``; anything
matching those shapes inside ``src/`` is an accidentally committed
artifact.  CI runs the same check as a shell step so the gate holds
even when the test job is skipped.
"""

import fnmatch
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

ARTIFACT_PATTERNS = (
    "BENCH_*.json",
    "*_metrics.json",
    "*metrics.json",
    "fault_overhead*.txt",
    "*.jsonl",
    "*.sarif",
    "*.prom",
)


def test_no_result_artifacts_inside_src():
    stray = []
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if any(fnmatch.fnmatch(name, p) for p in ARTIFACT_PATTERNS):
                stray.append(os.path.join(root, name))
    assert stray == [], (
        f"result artifacts committed inside src/: {stray}; "
        "benchmark outputs belong in benchmarks/results/"
    )


def test_engine_layer_does_not_import_algorithms():
    """Layering: algorithms drive engines, never the reverse."""
    import ast

    offenders = []
    engine_dir = os.path.join(SRC, "repro", "engine")
    for name in sorted(os.listdir(engine_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(engine_dir, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m.startswith("repro.algorithms") for m in modules):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == [], (
        f"repro.engine imports repro.algorithms at {offenders}"
    )


def test_kernel_registry_holds_signal_kernels_only():
    """The registry's contract is the signal-kernel signature
    ``(spec, state, local, vertices, carried_in)`` — tools that wrap
    every registered kernel (the benchmark spine's recorder reads
    ``args[3].size`` and ``batch.edges``) rely on it.  Slot scatters
    have another signature and live in ``repro.kernels.slots``'s own
    table."""
    from repro.analysis.kernelspec import (
        COUNT_TO_K_BREAK,
        FIRST_MATCH_BREAK,
        FULL_SCAN_MIN,
        FULL_SCAN_SUM,
    )
    from repro.kernels import available_kernels
    from repro.kernels.slots import SLOT_APPLIES

    assert set(available_kernels()) == {
        FIRST_MATCH_BREAK, COUNT_TO_K_BREAK, FULL_SCAN_SUM, FULL_SCAN_MIN,
    }
    assert not set(SLOT_APPLIES) & set(available_kernels())

"""Regime census: every run knob names the evidence that keeps it.

Generated from ``repro.api.FIELDS`` (``options`` rows:
``engine/symple.py::OPTION_FIELDS``), so a knob appears the day it
lands: each field that must not move a run's fixpoint gets a row per
non-default choice (one for a number's tuning or a live attachment),
citing a committed paper-table row, a test that needs it, or a
``BENCHMARK.json`` workload.  The bench fails on a row that cites
nothing, on evidence it cannot find, and on a census entry no field
generates.  Fields that define the experiment are listed as inputs.

Usage: ``python benchmarks/bench_regimes.py``, or ``pytest
benchmarks/bench_regimes.py --benchmark-only``.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.api import FIELDS, RunConfig
from repro.bench import format_table
from repro.bench.report import RESULTS_DIR, emit

ROOT = Path(__file__).resolve().parents[1]

#: fields that define the experiment, not how it is run
INPUTS = ("algorithm", "machines", "seed", "sources", "kcore_k", "bfs_roots",
          "kmeans_rounds", "faults")

FIG11 = ("results", "fig11.txt", "s27  0.960")
PROCESS = ("workload", "kcore_process")
WARN = "TestKernelWarn::test_warns_once_answers_like_the_oracle_and_stays"
#: (field, setting) -> (role, evidence); evidence is ("results", table,
#: text of its row), ("test", file, node) or ("workload", name)
CENSUS: Dict[Tuple[str, str], Tuple[str, Tuple[str, ...]]] = {
    ("engine", "gemini"): ("paper: the baseline (Tables 4-6, COST)",
                           ("results", "cost.txt", "gemini   MIS/s27")),
    ("engine", "dgalois"): ("paper: Table 7",
                            ("results", "table7.txt", "s27  19,387")),
    ("engine", "single"): ("paper: the COST baseline; Def. 2.4 oracle",
                           ("results", "cost.txt", "symple   BFS/s27")),
    ("options.degree_threshold", "tunable"): ("paper: the Section 6 sweep", (
        "results", "ablation_threshold.txt", "        4  15,812")),
    ("options.differentiated", "False"): ("paper: Fig. 11 (DP)", FIG11),
    ("options.double_buffering", "False"): ("paper: Fig. 11 (DB)", FIG11),
    ("options.schedule", "naive"): ("paper: the strawman of Section 5.1", (
        "test", "tests/test_paper_claims.py",
        "TestFig11Shape::test_naive_schedule_much_slower")),
    ("checkpoint_interval", "tunable"): ("fault tolerance: costs sim time", (
        "results", "fault_overhead.txt", "kcore           2")),
    ("obs", "attached"): ("self-check: a trace rebuilds the cost breakdown", (
        "test", "tests/test_obs.py",
        "TestReconstruction::test_breakdown_matches_live_exactly")),
    ("executor", "process"): ("verdict: ROADMAP item 5", PROCESS),
    ("workers", "tunable"): ("verdict: ROADMAP item 5 (pool size)", PROCESS),
    ("verify", "warn"): ("self-check: a refuted fast path answers as its "
                         "oracle", ("test", "tests/test_fastpath.py", WARN)),
    ("verify", "strict"): ("self-check: a refuted fast path stops the run", (
        "test", "tests/test_fastpath.py",
        "TestKernelWarn::test_strict_raises_the_certifiers_obligation")),
    ("mode", "async"): ("regime: high-diameter simulated time", (
        "results", "async_schedule.txt", "(ecc 126)        bfs  gemini")),
}


def settings() -> Iterator[Tuple[str, str]]:
    """``(field, setting)`` for every non-default choice, tuning or
    attachment of a field that is not an input."""
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    for name, row in FIELDS.items():
        if name in INPUTS:
            continue
        for sub, sub_row in (row.fields or {name: row}).items():
            field = f"{name}.{sub}" if row.fields else name
            default = (getattr(row.type(), sub) if row.fields
                       else defaults.get(sub))
            if sub_row.live:
                yield field, "attached"
            elif sub_row.choices or sub_row.type is bool:
                choices = sub_row.options() or (False, True)
                yield from ((field, str(c)) for c in choices if c != default)
            else:
                yield field, "tunable"


def reading(evidence: Tuple[str, ...]) -> Optional[str]:
    """What the evidence shows, or None where it is not found."""
    kind, where = evidence[:2]
    if kind == "workload":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        found = where in {w["name"] for w in spec["workloads"]}
        return f"BENCHMARK.json: {where}" if found else None
    path = Path(RESULTS_DIR) / where if kind == "results" else ROOT / where
    text = path.read_text() if path.exists() else ""
    if kind == "results":
        rows = [r for r in text.splitlines() if evidence[2] in r]
        return f"{where}: {' '.join(rows[0].split())}" if rows else None
    scope = ast.parse(text).body
    for part in evidence[2].split("::"):  # a class, then its method
        scope = next((n.body for n in scope
                      if getattr(n, "name", None) == part), None)
        if scope is None:
            return None
    return f"{path.name}::{evidence[2].rpartition('::')[2]}"


def build_table() -> Tuple[List[List[str]], List[str]]:
    keys = list(settings())
    problems = [f"{f}={v}: no such field or setting"
                for f, v in CENSUS if (f, v) not in keys]
    rows = []
    for field, setting in keys:
        role, evidence = CENSUS.get((field, setting), ("-", ()))
        found = reading(evidence) if evidence else None
        if found is None:
            problems.append(f"{field}={setting}: no evidence {evidence}")
        rows.append([field, setting, role, found or "MISSING"])
    return rows, problems


def render(rows) -> str:
    return format_table(
        "Regime census: every run knob and the evidence that keeps it",
        ["field", "setting", "role", "evidence"], rows,
        note="inputs (define the experiment): " + ", ".join(INPUTS),
    )


@pytest.mark.benchmark(group="regimes")
def test_regimes(benchmark):
    rows, problems = benchmark.pedantic(build_table, rounds=1, iterations=1)
    emit("regimes", render(rows))
    assert not problems, problems


def main():
    rows, problems = build_table()
    emit("regimes", render(rows))
    return "\n".join(problems) or 0


if __name__ == "__main__":
    sys.exit(main())

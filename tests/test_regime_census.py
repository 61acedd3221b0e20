"""The regime census (``benchmarks/bench_regimes.py``) refuses a run
knob that cites no evidence, the day the knob lands in the field table."""

import importlib.util
from pathlib import Path

import pytest

from repro.api import FIELDS
from repro.fields import Field

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_regimes.py"


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("bench_regimes", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_knob_cites_evidence_it_finds(census):
    rows, problems = census.build_table()
    assert problems == []
    knobs = {row[0] for row in rows}
    assert {"engine", "mode", "executor", "workers", "verify"} <= knobs
    assert not knobs & set(census.INPUTS)


def test_a_knob_with_no_row_fails(census, monkeypatch):
    monkeypatch.setitem(FIELDS, "turbo", Field(bool))
    rows, problems = census.build_table()
    assert ["turbo", "True", "-", "MISSING"] in rows
    assert any(p.startswith("turbo=True: no evidence") for p in problems)


def test_a_live_attachment_with_no_row_fails(census, monkeypatch):
    monkeypatch.setitem(FIELDS, "profiler", Field(live=True))
    rows, problems = census.build_table()
    assert ["profiler", "attached", "-", "MISSING"] in rows
    assert any(p.startswith("profiler=attached: no evidence")
               for p in problems)


def test_inputs_are_the_fields_that_define_the_experiment(census):
    """Only what defines the experiment is exempt from the census; a
    knob cannot leave it by being listed as an input."""
    assert census.INPUTS == ("algorithm", "machines", "seed", "sources",
                             "kcore_k", "bfs_roots", "kmeans_rounds",
                             "faults")


def test_evidence_that_is_gone_fails(census, monkeypatch):
    monkeypatch.setitem(census.CENSUS, ("options.schedule", "naive"), (
        "paper", ("test", "tests/test_paper_claims.py", "test_deleted"),
    ))
    monkeypatch.setitem(census.CENSUS, ("mode", "eventual"), (
        "regime", ("workload", "bfs_skew"),
    ))
    _, problems = census.build_table()
    assert sorted(p.split(":")[0] for p in problems) == [
        "mode=eventual", "options.schedule=naive",
    ]

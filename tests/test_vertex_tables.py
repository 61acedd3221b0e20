"""Per-vertex tables of a pull walk: built once per walk call, never kept.

A kernel role that reads the neighbour alone (``rank[u] / out_degree[u]``)
is evaluated once per vertex by :func:`repro.exec.work.vertex_tables`
and gathered per edge.  These tests count what each walk call builds —
one table for PageRank's term, none for MIS's destination-reading
predicate, the state array itself for a bare read — and check that a
crash-replayed phase builds its table from the state it restored, not
from the state it crashed on.  The bit-exactness of the gather itself
is ``tests/test_kernels.py::TestVertexTables``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import BFSProgram, MISProgram
from repro.algorithms.pagerank import PageRankProgram
from repro.engine import SympleOptions, make_engine
from repro.exec import work
from repro.fault import (
    CrashFault,
    FaultPlan,
    StragglerFault,
    run_program,
    run_recoverable,
)

MACHINES = 4


def symple(graph):
    return make_engine(
        "symple", graph, MACHINES,
        options=SympleOptions(degree_threshold=8),
    )


@pytest.fixture
def walks(monkeypatch):
    """Every pull walk call and every table build, as they happen:
    ``calls`` counts walk calls, ``builds`` holds one ``(tables, state,
    arrays)`` per :func:`work.vertex_tables` call — each table as built
    and copied, the live store (for identity checks) and a copy of its
    arrays at build time."""
    record = {"calls": 0, "builds": []}
    build, walk = work.vertex_tables, work.pull_walk

    def counting_build(spec, state):
        tables = build(spec, state)
        record["builds"].append((
            {role: (table, np.array(table)) for role, table in tables.items()},
            state,
            {name: np.array(state.array(name)) for name in state
             if isinstance(getattr(state, name), np.ndarray)},
        ))
        return tables

    def counting_walk(ctx, shared, items):
        record["calls"] += 1
        return walk(ctx, shared, items)

    counting_walk.chunk = counting_walk
    monkeypatch.setattr(work, "vertex_tables", counting_build)
    monkeypatch.setattr(work, "pull_walk", counting_walk)
    return record


def term_tables(record):
    return [tables["term"][1] for tables, _, _ in record["builds"]]


class TestBuildsPerWalk:
    def test_pagerank_builds_one_table_per_call(self, small_graph, walks):
        run_program(PageRankProgram(iterations=4), symple(small_graph))
        assert walks["calls"] >= 4
        assert len(walks["builds"]) == walks["calls"]
        for tables, state, _ in walks["builds"]:
            assert list(tables) == ["term"]
            table = tables["term"][0]
            # a computed table, not one of the state's own arrays
            assert all(table is not state.array(name) for name in state
                       if isinstance(getattr(state, name), np.ndarray))
            assert table.shape == (small_graph.num_vertices,)

    def test_mis_builds_none(self, small_graph, walks):
        run_program(MISProgram(seed=2), symple(small_graph))
        assert walks["calls"] > 0
        assert len(walks["builds"]) == walks["calls"]
        assert all(tables == {} for tables, _, _ in walks["builds"])

    def test_a_bare_read_is_its_own_table(self, small_graph, walks):
        run_program(BFSProgram(0, mode="bottomup"), symple(small_graph))
        assert walks["builds"]
        for tables, state, _ in walks["builds"]:
            assert tables["predicate"][0] is state.frontier

    def test_faulted_walk_builds_one_per_step(self, small_graph, walks):
        """Under a fault controller the walk is mapped a step at a
        time: one table each map, not one kept for the phase."""
        run_recoverable(
            PageRankProgram(iterations=3), symple(small_graph),
            plan=FaultPlan(seed=4, stragglers=(StragglerFault(1, 2.0),)),
        )
        assert walks["calls"] >= 3 * MACHINES
        assert len(walks["builds"]) == walks["calls"]


@pytest.mark.parametrize("interval", [0, 2])
def test_replayed_phase_reads_restored_state(small_graph, walks, interval):
    """A crash at phase 3 rolls the state back (to scratch, or to the
    last checkpoint); every table, the replayed phases' included, is
    the term over the state its walk read (never one built before the
    rollback), equals a table the clean run built, and the answer is
    the clean run's, bit for bit."""
    baseline = run_program(PageRankProgram(iterations=6), symple(small_graph))
    clean = {table.tobytes() for table in term_tables(walks)}
    clean_calls = walks["calls"]
    walks["calls"], walks["builds"] = 0, []
    recovered, report = run_recoverable(
        PageRankProgram(iterations=6), symple(small_graph),
        plan=FaultPlan(
            seed=1, crashes=(CrashFault(machine=2, iteration=3, step=2),)
        ),
        checkpoint_interval=interval,
    )
    assert report.crashes == 1 and report.recoveries == 1
    assert walks["calls"] > clean_calls
    assert len(walks["builds"]) == walks["calls"]
    assert {table.tobytes() for table in term_tables(walks)} <= clean
    for tables, _, arrays in walks["builds"]:
        with np.errstate(all="ignore"):
            fresh = arrays["rank"] / arrays["out_degree"]
        assert tables["term"][1].tobytes() == fresh.tobytes()
    np.testing.assert_array_equal(baseline.rank, recovered.rank)

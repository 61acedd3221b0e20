"""Crash-recovery metamorphic tests.

The contract under test: for every algorithm (each is a
``VertexProgram``), the final vertex state under ANY injected fault
schedule is bit-identical to the fault-free run — crashes and
checkpoints change the cost of a run, never its answer.  This is the fault-tolerance analogue of the paper's
Section 5.1 guarantee, and it holds for both the circulant engine
(where a mid-step crash severs the dependency circulation) and the BSP
baseline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import SympleOptions, make_engine
from repro.errors import FaultError, UnsupportedAlgorithmError
from repro.algorithms import BFSProgram, KCoreProgram, MISProgram
from repro.algorithms.cc import cc_program
from repro.algorithms.kmeans import KMeansProgram
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.sssp import sssp_program
from repro.fault import (
    CrashFault,
    FaultPlan,
    MessageFault,
    StragglerFault,
    run_program,
    run_recoverable,
)
from repro.graph import random_weights

MACHINES = 4

PROGRAMS = {
    "bfs": lambda root: BFSProgram(root),
    "kcore": lambda root: KCoreProgram(3),
    "mis": lambda root: MISProgram(seed=2),
    "sssp": lambda root: sssp_program(root),
    "cc": lambda root: cc_program(),
    "pagerank": lambda root: PageRankProgram(iterations=6),
    "kmeans": lambda root: KMeansProgram(rounds=2, seed=2),
}

#: the arrays of each program's result that must survive recovery
RESULT_ARRAYS = {
    "bfs": ("parent", "depth", "visited"),
    "kcore": ("in_core",),
    "mis": ("in_mis",),
    "sssp": ("dist",),
    "cc": ("label",),
    "pagerank": ("rank",),
    "kmeans": ("cluster", "distance", "centers"),
}


def result_arrays(algorithm: str, result):
    return tuple(getattr(result, name) for name in RESULT_ARRAYS[algorithm])


def fresh_engine(kind: str, graph):
    options = (
        SympleOptions(degree_threshold=8) if kind == "symple" else None
    )
    # SSSP needs weights; nobody else reads them
    graph = random_weights(graph, seed=3)
    return make_engine(kind, graph, MACHINES, options=options)


def a_root(graph) -> int:
    return int(np.flatnonzero(graph.out_degrees() > 0)[0])


def assert_identical(algorithm, baseline, recovered):
    for expected, actual in zip(
        result_arrays(algorithm, baseline), result_arrays(algorithm, recovered)
    ):
        np.testing.assert_array_equal(expected, actual)


@pytest.mark.parametrize("engine_kind", ["symple", "gemini"])
@pytest.mark.parametrize("algorithm", sorted(PROGRAMS))
@pytest.mark.parametrize(
    "crash,interval",
    [
        (CrashFault(machine=1, iteration=0), 0),  # before any progress
        (CrashFault(machine=0, iteration=2), 0),  # restart from scratch
        (CrashFault(machine=2, iteration=3), 1),  # rollback to checkpoint
        (CrashFault(machine=1, iteration=1), 2),
    ],
)
def test_crash_recovery_bit_identical(
    small_graph, engine_kind, algorithm, crash, interval
):
    root = a_root(small_graph)
    baseline = run_program(
        PROGRAMS[algorithm](root), fresh_engine(engine_kind, small_graph)
    )
    engine = fresh_engine(engine_kind, small_graph)
    recovered, report = run_recoverable(
        PROGRAMS[algorithm](root),
        engine,
        plan=FaultPlan(seed=3, crashes=(crash,)),
        checkpoint_interval=interval,
    )
    assert_identical(algorithm, baseline, recovered)
    assert report.crashes + report.recoveries >= 0  # report always present
    assert engine._fault_controller is None  # detached on exit


@pytest.mark.parametrize("algorithm", sorted(PROGRAMS))
def test_mid_circulant_crash_bit_identical(small_graph, algorithm):
    """A crash inside the circulant pull (step > 0) severs the
    dependency circulation; recovery restarts the phase with blanked
    bitmaps and still converges to the identical answer."""
    root = a_root(small_graph)
    baseline = run_program(
        PROGRAMS[algorithm](root), fresh_engine("symple", small_graph)
    )
    engine = fresh_engine("symple", small_graph)
    recovered, report = run_recoverable(
        PROGRAMS[algorithm](root),
        engine,
        plan=FaultPlan(
            seed=1, crashes=(CrashFault(machine=2, iteration=1, step=2),)
        ),
        checkpoint_interval=1,
    )
    assert_identical(algorithm, baseline, recovered)
    if algorithm == "kcore":  # every kcore phase is a circulant pull
        assert report.crashes == 1 and report.recoveries == 1


@settings(max_examples=12, deadline=None)
@given(
    crashes=st.lists(
        st.tuples(
            st.integers(0, MACHINES - 1),  # machine
            st.integers(0, 5),  # iteration
            st.integers(0, MACHINES - 1),  # step
        ),
        max_size=3,
        unique=True,
    ),
    interval=st.integers(0, 3),
)
def test_random_crash_schedules_kcore(tiny_graph, crashes, interval):
    baseline = run_program(
        KCoreProgram(3), fresh_engine("symple", tiny_graph)
    )
    plan = FaultPlan(
        seed=5,
        crashes=tuple(
            CrashFault(machine=m, iteration=i, step=s) for m, i, s in crashes
        ),
    )
    recovered, _ = run_recoverable(
        KCoreProgram(3),
        fresh_engine("symple", tiny_graph),
        plan=plan,
        checkpoint_interval=interval,
    )
    np.testing.assert_array_equal(baseline.in_core, recovered.in_core)


def test_stragglers_change_time_not_results(small_graph):
    baseline_engine = fresh_engine("symple", small_graph)
    baseline = run_program(KCoreProgram(3), baseline_engine)

    engine = fresh_engine("symple", small_graph)
    plan = FaultPlan(
        seed=2, stragglers=(StragglerFault(machine=1, factor=5.0),)
    )
    result, _ = run_recoverable(KCoreProgram(3), engine, plan=plan)
    np.testing.assert_array_equal(baseline.in_core, result.in_core)
    # identical traffic, strictly slower simulated execution
    assert engine.counters.total_bytes == baseline_engine.counters.total_bytes
    assert engine.execution_time() > baseline_engine.execution_time()


def test_message_faults_keep_results_identical(small_graph):
    baseline_engine = fresh_engine("symple", small_graph)
    baseline = run_program(KCoreProgram(3), baseline_engine)

    engine = fresh_engine("symple", small_graph)
    plan = FaultPlan(
        seed=8,
        messages=(
            MessageFault(kind="drop", rate=0.15, tag="update"),
            MessageFault(kind="delay", rate=0.2, delay=40.0),
            MessageFault(kind="duplicate", rate=0.1, tag="sync"),
        ),
    )
    result, report = run_recoverable(KCoreProgram(3), engine, plan=plan)
    np.testing.assert_array_equal(baseline.in_core, result.in_core)
    # retransmissions and duplicates cost traffic; delays cost time
    assert report.fault_stats["retransmissions"] > 0
    assert engine.counters.total_bytes > baseline_engine.counters.total_bytes
    assert engine.counters.penalty_time > 0.0
    assert engine.execution_time() > baseline_engine.execution_time()


def test_certain_loss_escalates_to_fault_error(small_graph):
    plan = FaultPlan(
        seed=0, messages=(MessageFault(kind="drop", rate=1.0, tag="update"),)
    )
    with pytest.raises(FaultError):
        run_recoverable(
            KCoreProgram(3),
            fresh_engine("symple", small_graph),
            plan=plan,
            max_recoveries=2,
        )


def test_dep_drop_is_advisory_not_retransmitted(small_graph):
    """Dropping every dep message must neither retransmit nor change
    results — the receiver processes blind (Section 5.1)."""
    baseline_engine = fresh_engine("symple", small_graph)
    baseline = run_program(KCoreProgram(3), baseline_engine)

    engine = fresh_engine("symple", small_graph)
    result, report = run_recoverable(
        KCoreProgram(3), engine, plan=FaultPlan.dep_loss(1.0, seed=6)
    )
    np.testing.assert_array_equal(baseline.in_core, result.in_core)
    assert report.fault_stats["dep_losses"] > 0
    assert report.fault_stats["retransmissions"] == 0
    assert report.recoveries == 0
    # blind processing loses savings: strictly more edges traversed
    assert (
        engine.counters.edges_traversed
        > baseline_engine.counters.edges_traversed
    )


def test_seed_plan_replay_is_deterministic(small_graph):
    plan = FaultPlan(
        seed=13,
        crashes=(CrashFault(machine=0, iteration=2),),
        stragglers=(StragglerFault(machine=2, factor=3.0, start=1, end=4),),
        messages=(
            MessageFault(kind="drop", rate=0.3, tag="update"),
            MessageFault(kind="duplicate", rate=0.2),
        ),
    )

    def one_run():
        engine = fresh_engine("symple", small_graph)
        result, report = run_recoverable(
            MISProgram(seed=2), engine, plan=plan, checkpoint_interval=2
        )
        return (
            result.in_mis.copy(),
            engine.counters.summary(),
            engine.execution_time(),
            report.to_dict(),
        )

    first, second = one_run(), one_run()
    np.testing.assert_array_equal(first[0], second[0])
    assert first[1] == second[1]
    assert first[2] == second[2]
    assert first[3] == second[3]


def test_checkpoint_overhead_is_metered(small_graph):
    plain_engine = fresh_engine("symple", small_graph)
    run_program(KCoreProgram(3), plain_engine)
    assert plain_engine.counters.summary()["ckpt_bytes"] == 0

    engine = fresh_engine("symple", small_graph)
    _, report = run_recoverable(
        KCoreProgram(3), engine, checkpoint_interval=1
    )
    assert report.checkpoints_taken > 0
    summary = engine.counters.summary()
    assert summary["ckpt_bytes"] > 0
    assert summary["ckpt_bytes"] == report.checkpoint_bytes
    assert engine.execution_time() > plain_engine.execution_time()


def test_harness_faulted_run(small_graph):
    from repro.api import Checkpointing, RunConfig, Session

    with Session(small_graph) as session:
        plain = session.run(RunConfig(
            engine="symple", algorithm="kcore", machines=MACHINES,
            kcore_k=3,
        ))
        faulted = session.run(RunConfig(
            engine="symple", algorithm="kcore", machines=MACHINES,
            kcore_k=3,
            faults=FaultPlan.single_crash(machine=1, iteration=2),
            checkpointing=Checkpointing(interval=1),
        ))
    assert faulted.extra["core_size"] == plain.extra["core_size"]
    assert faulted.extra["fault_crashes"] == 1
    assert faulted.total_bytes > plain.total_bytes


@pytest.mark.parametrize("engine_kind", ["symple", "gemini"])
@pytest.mark.parametrize(
    "algorithm",
    ["bfs", "cc", "kcore", "kmeans", "mis", "pagerank", "sampling", "sssp"],
)
def test_harness_recovers_every_algorithm(
    small_graph, engine_kind, algorithm
):
    """One mid-run crash with a checkpoint per superstep: the fixpoint
    and every non-fault metric equal the clean twin's."""
    from repro.api import Checkpointing, RunConfig, Session

    # sampling is a single phase, so its only crash point is phase 0
    iteration = 0 if algorithm == "sampling" else 2
    config = RunConfig(
        engine=engine_kind, algorithm=algorithm, machines=MACHINES,
        seed=3, kcore_k=3, bfs_roots=1,
    )
    with Session(random_weights(small_graph, seed=3), config) as session:
        clean = session.run()
        faulted = session.run(
            faults=FaultPlan.single_crash(machine=1, iteration=iteration),
            checkpointing=Checkpointing(interval=1),
        )
    assert faulted.fixpoint == clean.fixpoint
    assert faulted.extra["fault_crashes"] == 1
    assert faulted.extra["fault_recoveries"] == 1
    assert faulted.extra["fault_restores"] == 1
    for key, value in clean.extra.items():
        assert faulted.extra[key] == value, key


def test_harness_rejects_scc():
    """scc's private transpose engine is out of a fault plan's reach."""
    from repro.api import RunConfig

    with pytest.raises(UnsupportedAlgorithmError):
        RunConfig(
            algorithm="scc",
            faults=FaultPlan.single_crash(machine=0, iteration=1),
        )


def test_cli_run_with_faults(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "plan.json"
    FaultPlan.single_crash(machine=1, iteration=2, seed=3).save(str(path))
    code = main(
        [
            "run", "--engine", "symple", "--dataset", "tw",
            "--algorithm", "kcore", "--machines", "4",
            "--faults", str(path), "--checkpoint-interval", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fault_crashes: 1" in out
    assert "fault_checkpoints_taken" in out

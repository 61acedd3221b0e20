"""Event-driven simulator vs the cost model's circulant timeline.

The two implementations are independent; exact agreement on randomized
inputs — the makespan and every machine's finish at every step — is
strong evidence both encode the intended circulant-schedule semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import mis
from repro.engine import SympleGraphEngine, SympleOptions
from repro.graph import rmat, to_undirected
from repro.partition import OutgoingEdgeCut
from repro.runtime import CostModel, IterationRecord, StepRecord
from repro.runtime.simulation import EventLog, simulate_circulant_iteration


def simulated_finish(record, cm, double_buffering):
    """Simulator makespan and per-(step, machine) finish from its log."""
    p = record.steps[0].num_machines
    log = EventLog()
    makespan = simulate_circulant_iteration(
        record, cm, double_buffering=double_buffering, log=log
    )
    finish = np.full((len(record.steps), p), np.nan)
    for t, what in log.events:
        machine, step, *phase = what.split()
        if phase == ["high", "done"]:
            finish[int(step[1:]), int(machine[1:])] = t
    return makespan, finish


def assert_agree(record, cm, double_buffering):
    makespan, finish = simulated_finish(record, cm, double_buffering)
    timeline = cm.circulant_timeline(record, double_buffering=double_buffering)
    assert makespan == pytest.approx(timeline.makespan, rel=1e-9)
    np.testing.assert_allclose(finish, timeline.finish, rtol=1e-9)


def random_record(rng, p, steps):
    record = IterationRecord(mode="pull")
    for _ in range(steps):
        step = StepRecord(p)
        step.high_edges[:] = rng.integers(0, 2000, p)
        step.low_edges[:] = rng.integers(0, 500, p)
        step.high_vertices[:] = rng.integers(0, 100, p)
        step.low_vertices[:] = rng.integers(0, 100, p)
        step.dep_bytes[:] = rng.integers(0, 400, p)
        step.update_bytes[:] = rng.integers(0, 1000, p)
        record.steps.append(step)
    return record


class TestAgreement:
    @given(
        seed=st.integers(0, 100_000),
        p=st.sampled_from([2, 3, 4, 8]),
        db=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_simulator_matches_recursion(self, seed, p, db):
        rng = np.random.default_rng(seed)
        record = random_record(rng, p, steps=p)
        cm = CostModel(latency=float(rng.integers(0, 300)))
        assert_agree(record, cm, db)

    def test_agreement_on_real_engine_records(self):
        graph = to_undirected(rmat(scale=8, edge_factor=8, seed=5))
        engine = SympleGraphEngine(
            OutgoingEdgeCut().partition(graph, 4),
            options=SympleOptions(degree_threshold=0),
        )
        mis(engine, seed=1)
        cm = engine.default_cost
        for record in engine.counters.iterations:
            if record.mode != "pull" or len(record.steps) != 4:
                continue
            assert_agree(record, cm, True)


class TestSimulatorBehaviour:
    def test_empty_record(self):
        assert simulate_circulant_iteration(IterationRecord(), CostModel()) == 0.0

    def test_event_log_populated(self):
        rng = np.random.default_rng(1)
        record = random_record(rng, 4, 4)
        log = EventLog()
        finish = simulate_circulant_iteration(record, CostModel(), log=log)
        assert log.finish_time == finish
        assert len(log.events) == 2 * 4 * 4  # low+high per (machine, step)
        times = [t for t, _ in log.events]
        assert max(times) == finish

    def test_double_buffering_never_hurts(self):
        rng = np.random.default_rng(2)
        cm = CostModel(latency=200.0)
        for _ in range(10):
            record = random_record(rng, 4, 4)
            with_db = simulate_circulant_iteration(record, cm, True)
            without = simulate_circulant_iteration(record, cm, False)
            assert with_db <= without + 1e-9

    def test_latency_monotone(self):
        rng = np.random.default_rng(3)
        record = random_record(rng, 4, 4)
        fast = simulate_circulant_iteration(record, CostModel(latency=1.0))
        slow = simulate_circulant_iteration(record, CostModel(latency=500.0))
        assert slow >= fast

"""Schedule matrix and the cost model's circulant step timeline."""

import numpy as np
import pytest

from repro.algorithms import mis
from repro.engine import SympleGraphEngine, SympleOptions
from repro.engine.symple import render_schedule, schedule_matrix
from repro.errors import EngineError
from repro.graph import rmat, to_undirected
from repro.partition import OutgoingEdgeCut
from repro.runtime import CostModel, StepTimeline
from repro.runtime.counters import IterationRecord, StepRecord


class TestScheduleMatrix:
    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_columns_are_permutations(self, p):
        matrix = schedule_matrix(p)
        for s in range(p):
            assert sorted(matrix[:, s]) == list(range(p))

    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_rows_are_permutations(self, p):
        matrix = schedule_matrix(p)
        for m in range(p):
            assert sorted(matrix[m, :]) == list(range(p))

    def test_single_machine_degenerates(self):
        assert np.array_equal(schedule_matrix(1), np.array([[0]]))

    @pytest.mark.parametrize("p", [0, -3])
    def test_rejects_nonpositive_machine_count(self, p):
        with pytest.raises(EngineError):
            schedule_matrix(p)

    def test_render_single_machine(self):
        text = render_schedule(1)
        assert "no dependency hand-off" in text

    def test_last_step_is_local(self):
        """At the final step every machine processes its own partition
        (the master receives the complete dependency state)."""
        p = 5
        matrix = schedule_matrix(p)
        assert np.array_equal(matrix[:, p - 1], np.arange(p))

    def test_render_contains_all_cells(self):
        text = render_schedule(3)
        assert "M0" in text and "M2" in text
        assert "s0" in text and "s2" in text
        assert "P0" in text


def make_record(p=4, edges=1000, dep=100, steps=None):
    rec = IterationRecord(mode="pull")
    for _ in range(steps or p):
        step = StepRecord(p)
        step.high_edges[:] = edges
        step.dep_bytes[:] = dep
        rec.steps.append(step)
    return rec


class TestStepTimeline:
    def test_shape(self):
        tl = CostModel().circulant_timeline(make_record(p=4))
        assert tl.start.shape == (4, 4)
        assert tl.finish.shape == (4, 4)

    def test_monotone_per_machine(self):
        tl = CostModel().circulant_timeline(make_record(p=4))
        for m in range(4):
            assert np.all(np.diff(tl.finish[:, m]) > 0)
        assert np.all(tl.finish >= tl.start)

    def test_makespan_close_to_cost_model(self):
        """The iteration time is the timeline's makespan plus only the
        iteration-wide terms: tails, barrier and sync."""
        cm = CostModel()
        rec = make_record(p=4)
        rec.steps[0].update_bytes[:] = 64
        rec.sync_bytes = 32
        for db in (True, False):
            tl = cm.circulant_timeline(rec, double_buffering=db)
            total = cm.symple_iteration_time(rec, double_buffering=db)
            tails = sum(
                cm.transfer_time(step.update_bytes.sum())
                * (1.0 - cm.comm_overlap)
                + cm.transfer_time(step.dep_bytes.sum())
                * (1.0 - cm.comm_overlap)
                for step in rec.steps
            )
            sync = cm.transfer_time(32) * (1.0 - cm.comm_overlap) + cm.latency
            extras = tails + cm.iteration_overhead + sync
            assert total == pytest.approx(tl.makespan + extras, rel=1e-12)

    def test_double_buffering_reduces_makespan_under_latency(self):
        cm = CostModel(latency=500.0)
        rec = make_record(p=4, dep=0)
        with_db = cm.circulant_timeline(rec, double_buffering=True)
        without = cm.circulant_timeline(rec, double_buffering=False)
        assert with_db.makespan <= without.makespan

    def test_empty_record(self):
        tl = CostModel().circulant_timeline(IterationRecord())
        assert tl.makespan == 0.0

    def test_wait_time_nonnegative(self):
        tl = CostModel(latency=1000.0).circulant_timeline(make_record(p=4))
        assert np.all(tl.wait_time() >= 0)

    def test_empty_timeline_object(self):
        """A bare StepTimeline with no steps must not crash anywhere."""
        tl = StepTimeline(*[np.zeros((0, 0))] * 5)
        assert tl.makespan == 0.0
        assert tl.num_steps == 0
        assert tl.num_machines == 0
        assert tl.wait_time().shape == (0,)
        assert tl.dep_wait_time().shape == (0,)

    def test_dep_wait_defaults_to_zeros(self):
        """Nothing to wait for (no latency, no hand-off bytes): every
        dependency-wait cell is zero, and so is every hidden one."""
        tl = CostModel(latency=0.0).circulant_timeline(
            make_record(p=2, dep=0, steps=3)
        )
        assert tl.dep_wait.shape == (3, 2)
        assert np.all(tl.dep_wait == 0.0)
        assert np.all(tl.hidden_wait == 0.0)

    def test_single_machine_never_waits(self):
        """p=1: no hand-off exists, so no dependency wait ever shows."""
        tl = CostModel(latency=1000.0).circulant_timeline(
            make_record(p=1, steps=1)
        )
        assert tl.num_machines == 1
        assert np.all(tl.dep_wait == 0.0)
        assert tl.makespan > 0.0

    def test_slowdown_stretches_compute(self):
        cm = CostModel()
        rec = make_record(p=4)
        slowed = make_record(p=4)
        for step in slowed.steps:
            step.slowdown[0] = 3.0
        base = cm.circulant_timeline(rec)
        slow = cm.circulant_timeline(slowed)
        assert slow.finish[0, 0] > base.finish[0, 0]
        # and the timeline agrees with the cost model, which also prices
        # the straggler
        assert (cm.symple_iteration_time(slowed)
                > cm.symple_iteration_time(rec))

    def test_dep_wait_exposed_under_latency(self):
        """High latency without double buffering exposes dependency
        waits; dep_wait must record them."""
        cm = CostModel(latency=5000.0)
        rec = make_record(p=4, edges=10, dep=100)
        tl = cm.circulant_timeline(rec, double_buffering=False)
        assert tl.dep_wait_time().sum() > 0.0

    def test_hidden_wait_only_with_double_buffering(self):
        """Splitting the hand-off hides wait; shipping it whole hides
        none, and the exposed wait grows by at least what was hidden."""
        cm = CostModel(latency=500.0)
        rec = make_record(p=4, edges=200, dep=400)
        split = cm.circulant_timeline(rec, double_buffering=True)
        whole = cm.circulant_timeline(rec, double_buffering=False)
        assert split.hidden_wait.sum() > 0.0
        assert np.all(whole.hidden_wait == 0.0)
        assert np.all(split.hidden_wait[0] == 0.0)  # step 0 awaits nothing
        assert whole.dep_wait_time().sum() >= split.dep_wait_time().sum()

    def test_timeline_from_real_engine_run(self):
        graph = to_undirected(rmat(scale=8, edge_factor=8, seed=3))
        engine = SympleGraphEngine(
            OutgoingEdgeCut().partition(graph, 4),
            options=SympleOptions(degree_threshold=0),
        )
        mis(engine, seed=1)
        pulls = [
            rec for rec in engine.counters.iterations
            if rec.mode == "pull" and len(rec.steps) == 4
        ]
        assert pulls
        tl = CostModel().circulant_timeline(pulls[0])
        assert tl.makespan > 0

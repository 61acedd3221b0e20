"""Cost-model time breakdown and hypothesis monotonicity properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import mis
from repro.engine import GeminiEngine, SympleGraphEngine, SympleOptions
from repro.graph import rmat, to_undirected
from repro.partition import OutgoingEdgeCut
from repro.runtime import CostModel, Counters, IterationRecord, StepRecord


def make_counters(p=4, edges=1000, update_bytes=500, dep=50, sync=200, steps=4):
    c = Counters(p)
    rec = IterationRecord(mode="pull")
    for _ in range(steps):
        step = StepRecord(p)
        step.high_edges[:] = edges
        step.update_bytes[:] = update_bytes
        step.dep_bytes[:] = dep
        rec.steps.append(step)
    rec.sync_bytes = sync
    c.add_iteration(rec)
    return c


def priced(cm, counters, engine, **pricing):
    """Price a run once, then split the total."""
    return cm.breakdown(
        counters, cm.execution_time(counters, engine, **pricing)
    )


class TestBreakdown:
    def test_components_nonnegative_and_sum(self):
        cm = CostModel()
        c = make_counters()
        b = priced(cm, c, "symple")
        for key in ("compute", "communication", "overhead", "dependency_wait"):
            assert b[key] >= 0.0, key
        total = b["compute"] + b["communication"] + b["overhead"] + b["dependency_wait"]
        assert total == pytest.approx(b["total"], rel=1e-9)

    def test_gemini_has_no_dependency_wait_to_speak_of(self):
        cm = CostModel()
        c = make_counters(steps=1)
        b = priced(cm, c, "gemini")
        # Gemini's time decomposes fully into the first three terms
        assert b["dependency_wait"] < b["total"] * 0.05

    def test_latency_increases_dependency_wait(self):
        c = make_counters()
        low = priced(CostModel(latency=5.0), c, "symple")
        high = priced(CostModel(latency=500.0), c, "symple")
        assert high["dependency_wait"] > low["dependency_wait"]

    def test_double_buffering_shrinks_dependency_wait(self):
        cm = CostModel(latency=300.0)
        c = make_counters()
        with_db = priced(cm, c, "symple", double_buffering=True)
        without = priced(cm, c, "symple", double_buffering=False)
        assert with_db["dependency_wait"] <= without["dependency_wait"]

    def test_real_run(self):
        graph = to_undirected(rmat(scale=8, edge_factor=8, seed=3))
        engine = SympleGraphEngine(
            OutgoingEdgeCut().partition(graph, 4),
            options=SympleOptions(degree_threshold=0),
        )
        mis(engine, seed=1)
        b = priced(engine.default_cost, engine.counters, "symple")
        assert b["total"] == pytest.approx(engine.execution_time())
        assert b["compute"] > 0


positive = st.floats(0.01, 10.0)


class TestMonotonicity:
    @given(st.integers(100, 5000), st.integers(100, 5000))
    @settings(max_examples=40, deadline=None)
    def test_more_edges_never_faster(self, e1, e2):
        cm = CostModel()
        lo, hi = sorted((e1, e2))
        t_lo = cm.execution_time(make_counters(edges=lo), "gemini")
        t_hi = cm.execution_time(make_counters(edges=hi), "gemini")
        assert t_hi >= t_lo

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_more_bytes_never_faster(self, b1, b2):
        cm = CostModel()
        lo, hi = sorted((b1, b2))
        t_lo = cm.execution_time(make_counters(update_bytes=lo), "symple")
        t_hi = cm.execution_time(make_counters(update_bytes=hi), "symple")
        assert t_hi >= t_lo

    @given(positive)
    @settings(max_examples=30, deadline=None)
    def test_naive_schedule_never_faster_than_circulant(self, scale):
        cm = CostModel(compute_scale=scale)
        c = make_counters()
        circulant = cm.execution_time(c, "symple", schedule="circulant")
        naive = cm.execution_time(c, "symple", schedule="naive")
        assert naive >= circulant

    @given(st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_more_cores_never_slower(self, cores):
        c = make_counters()
        base = CostModel(cores=1).execution_time(c, "gemini")
        faster = CostModel(cores=cores).execution_time(c, "gemini")
        assert faster <= base

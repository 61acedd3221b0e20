"""Instrumentation: generated code structure and observational equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import bottom_up_signal
from repro.algorithms.cc import cc_signal
from repro.algorithms.incremental import relax_depth_signal
from repro.algorithms.kcore import kcore_signal
from repro.algorithms.sampling import sampling_signal
from repro.analysis import explain_signal, instrument_signal
from repro.analysis.slotspec import MIN_FOLD_RULE
from repro.engine.dep import DepStore
from repro.engine.state import StateStore
from repro.errors import InstrumentationError


class TestGeneratedStructure:
    def test_no_dependency_means_no_instrumented_form(self):
        def signal(v, nbrs, s, emit):
            for u in nbrs:
                emit(u)

        analyzed = instrument_signal(signal)
        assert not analyzed.has_dependency
        assert analyzed.instrumented is None

    def test_bfs_gets_skip_prologue_and_mark(self):
        analyzed = instrument_signal(bottom_up_signal)
        src = analyzed.instrumented_source
        assert "if dep.skip:" in src
        assert "dep.mark_break()" in src
        assert analyzed.instrumented is not None

    def test_kcore_gets_restore_and_stores(self):
        analyzed = instrument_signal(kcore_signal)
        src = analyzed.instrumented_source
        assert "cnt = dep.load('cnt', cnt)" in src
        assert "dep.store('cnt', cnt)" in src

    def test_restore_placed_after_initialization(self):
        analyzed = instrument_signal(kcore_signal)
        src = analyzed.instrumented_source
        # `start = cnt` must observe the restored value
        assert src.index("dep.load('cnt'") < src.index("start = cnt")

    def test_store_before_break(self):
        import re

        analyzed = instrument_signal(sampling_signal)
        src = analyzed.instrumented_source
        break_stmt = re.search(r"^\s*break$", src, re.MULTILINE)
        assert break_stmt is not None
        assert src.index("dep.store('weight', weight)") < break_stmt.start()
        assert src.index("dep.mark_break()") < break_stmt.start()

    def test_generated_name_suffixed(self):
        analyzed = instrument_signal(bottom_up_signal)
        assert analyzed.instrumented.__name__.endswith("__dep")

    def test_conditional_reinitialization_supported(self):
        """The dataflow analyzer lifted the single-assignment rule: a
        conditional re-init is fine — the restore lands after the
        *last* pre-loop write, so it cannot be clobbered."""

        def signal(v, nbrs, s, emit):
            cnt = 0
            if s.flagged[v]:
                cnt = 1
            for u in nbrs:
                cnt += 1
                if cnt >= 3:
                    emit(cnt)
                    break

        analyzed = instrument_signal(signal)
        assert analyzed.info.carried_vars == ("cnt",)
        src = analyzed.instrumented_source
        # restore after the conditional write, before the loop
        assert src.index("cnt = 1") < src.index("dep.load('cnt'")
        assert src.index("dep.load('cnt'") < src.index("for u in nbrs")

    def test_unbound_carried_var_rejected(self):
        """A carried variable not assigned on every path into the loop
        still raises, now with a located message."""

        def signal(v, nbrs, s, emit):
            if s.flagged[v]:
                cnt = 0
            for u in nbrs:
                cnt += 1
                if cnt >= 3:
                    emit(cnt)
                    break

        with pytest.raises(InstrumentationError, match="every\\s+path"):
            instrument_signal(signal)


def run_original(analyzed, v, nbrs, state):
    emitted = []
    analyzed.original(v, list(nbrs), state, emitted.append)
    return emitted


def run_instrumented_split(analyzed, v, nbrs, state, split_points):
    """Run the instrumented signal over machine-sized chunks of nbrs,
    threading one DepStore through — exactly what the engine does."""
    store = DepStore(v + 1, analyzed.info.carried_vars)
    emitted = []
    chunks = []
    prev = 0
    for point in sorted(split_points):
        chunks.append(list(nbrs[prev:point]))
        prev = point
    chunks.append(list(nbrs[prev:]))
    for chunk in chunks:
        if store.skip[v]:
            break
        analyzed.instrumented(v, chunk, state, emitted.append, store.handle(v))
    return emitted


class TestObservationalEquivalence:
    """Splitting the neighbor sequence at arbitrary machine boundaries
    and threading the dependency state must reproduce the sequential
    run exactly — Definition 2.4's I(u1 (+) u2) = I(u1) (+) I(u2|u1)."""

    def make_state(self, n, seed):
        rng = np.random.default_rng(seed)
        s = StateStore(n)
        s.set("frontier", rng.random(n) < 0.3)
        s.set("active", rng.random(n) < 0.7)
        s.set("weight", rng.uniform(0.1, 1.0, n))
        s.set("r", np.full(n, 2.0))
        s.add_scalar("k", 3)
        return s

    @given(seed=st.integers(0, 10_000), splits=st.sets(st.integers(1, 19), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_bfs_split_equivalence(self, seed, splits):
        analyzed = instrument_signal(bottom_up_signal)
        n = 20
        state = self.make_state(n, seed)
        nbrs = np.random.default_rng(seed + 1).permutation(n)[:15]
        sequential = run_original(analyzed, 0, nbrs, state)
        distributed = run_instrumented_split(analyzed, 0, nbrs, state, splits)
        assert sequential == distributed

    @given(seed=st.integers(0, 10_000), splits=st.sets(st.integers(1, 19), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_kcore_split_equivalence(self, seed, splits):
        analyzed = instrument_signal(kcore_signal)
        n = 20
        state = self.make_state(n, seed)
        nbrs = np.random.default_rng(seed + 1).permutation(n)[:15]
        sequential = run_original(analyzed, 0, nbrs, state)
        distributed = run_instrumented_split(analyzed, 0, nbrs, state, splits)
        # K-core emits per-chunk deltas; their sum must equal the
        # sequential count and the saturation point must match.
        assert sum(distributed) == sum(sequential)

    @given(seed=st.integers(0, 10_000), splits=st.sets(st.integers(1, 19), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_sampling_split_equivalence(self, seed, splits):
        analyzed = instrument_signal(sampling_signal)
        n = 20
        state = self.make_state(n, seed)
        state.set("r", np.full(n, float(seed % 7) + 0.5))
        nbrs = np.random.default_rng(seed + 1).permutation(n)[:15]
        sequential = run_original(analyzed, 0, nbrs, state)
        distributed = run_instrumented_split(analyzed, 0, nbrs, state, splits)
        assert sequential == distributed


class TestExplainReport:
    def test_report_mentions_dependency(self):
        report = explain_signal(kcore_signal)
        assert "control dependency  : True" in report
        assert "cnt" in report
        assert "dep.load" in report  # includes generated source

    def test_report_for_no_dependency(self):
        def signal(v, nbrs, s, emit):
            for u in nbrs:
                emit(u)

        report = explain_signal(signal)
        assert "no loop-carried dependency" in report

    @pytest.mark.parametrize("signal", [cc_signal, relax_depth_signal])
    def test_report_names_the_min_fold_rule(self, signal):
        report = explain_signal(signal)
        assert "data dependency     : best" in report
        assert MIN_FOLD_RULE in report
        assert "dependency propagation enabled" not in report

    def test_a_break_keeps_dependency_propagation(self):
        report = explain_signal(kcore_signal)
        assert "dependency propagation enabled" in report
        assert MIN_FOLD_RULE not in report

    def test_report_accepts_analyzed_signal(self):
        analyzed = instrument_signal(bottom_up_signal)
        report = explain_signal(analyzed)
        assert "loop-carried dependency detected" in report

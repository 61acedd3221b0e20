"""The tutorial's running example, kept executable.

docs/TUTORIAL.md builds a "K-hop trust probing" UDF; this test file IS
that UDF (analyzers need real source files), so the tutorial can never
silently drift from the library.
"""

import numpy as np
import pytest

from repro import rmat
from repro.analysis import explain_signal, lint_signal
from repro.analysis.properties import (
    check_dependency_threading,
    check_parallel_decomposable,
)
from repro.engine import make_engine
from repro.engine.state import StateStore
from repro.graph import to_undirected


def trust_signal(v, nbrs, s, emit):
    seen = 0
    start = seen
    for u in nbrs:
        if s.trusted[u]:
            seen += 1
            if seen >= s.k:
                break
    if seen > start:
        emit(seen - start)


def count_slot(v, value, s):
    s.count[v] += int(value)
    return False


def make_state():
    s = StateStore(16)
    s.set("trusted", np.random.default_rng(0).random(16) < 0.5)
    s.add_scalar("k", 3)
    s.add_array("count", np.int64, 0)
    return s


@pytest.fixture(scope="module")
def graph():
    return to_undirected(rmat(scale=9, edge_factor=12, seed=3))


def run(kind, graph):
    engine = make_engine(kind, graph, num_machines=8)
    s = engine.new_state()
    s.set(
        "trusted",
        np.random.default_rng(1).random(graph.num_vertices) < 0.4,
    )
    s.add_scalar("k", 3)
    s.add_array("count", np.int64, 0)
    active = graph.in_degrees() > 0
    engine.pull(
        trust_signal, count_slot, s, active,
        update_bytes=8, sync_bytes=0, share_dep_data=False,
    )
    return (s.count >= 3), engine


class TestTutorialStepByStep:
    def test_step3_analysis(self):
        report = explain_signal(trust_signal)
        assert "seen" in report
        assert "loop-carried dependency detected" in report
        assert lint_signal(trust_signal) == []

    def test_step4_properties(self):
        assert check_parallel_decomposable(
            trust_signal,
            count_slot,
            make_state,
            observe=lambda s: s.count[0] >= 3,
            neighbor_pool=range(1, 16),
        )
        assert check_dependency_threading(
            trust_signal, make_state, range(1, 16), normalize=sum
        )

    def test_step5_identical_results(self, graph):
        gem_result, _ = run("gemini", graph)
        sym_result, _ = run("symple", graph)
        assert np.array_equal(gem_result, sym_result)

    def test_step6_measurable_savings(self, graph):
        _, gem = run("gemini", graph)
        _, sym = run("symple", graph)
        assert sym.counters.edges_traversed < gem.counters.edges_traversed
        assert sym.counters.update_bytes <= gem.counters.update_bytes
        assert sym.counters.dep_bytes > 0


def doubling_signal(v, nbrs, s, emit):
    # the tutorial's deliberately broken variant: *= is not a count
    seen = 0
    start = seen
    for u in nbrs:
        if s.trusted[u]:
            seen *= 2
            if seen >= s.k:
                break
    if seen > start:
        emit(seen - start)


class TestTutorialStep8Certification:
    def test_trust_signal_certifies(self):
        from repro.analysis.verify import verify_signal

        verdict = verify_signal(trust_signal)
        assert verdict.status == "certified"
        assert verdict.spec_kind == "count_to_k_break"

    def test_doubling_variant_refused_with_program_point(self):
        from repro.analysis.ast_analysis import analyze_parsed, parse_signal
        from repro.analysis.kernelspec import classify_kernel
        from repro.analysis.verify import certify_spec
        from repro.errors import KernelSoundnessError

        sig = parse_signal(trust_signal)
        pristine_spec = classify_kernel(sig, analyze_parsed(sig))
        broken = parse_signal(doubling_signal)
        with pytest.raises(KernelSoundnessError) as exc_info:
            certify_spec(broken, analyze_parsed(broken), pristine_spec)
        assert exc_info.value.obligation == "fold-count"
        assert "test_tutorial.py" in exc_info.value.program_point

"""The one fast-path mechanism (``repro.engine.fastpath``).

* the ``kernel`` row's *warn* policy — a tampered ``KernelSpec`` warns
  once, runs like its twin on the interpreter and stays refuted;
* verdicts are per ``(function, path)``: a refutation on one path
  leaves the function's other paths alone;
* the gate CI runs over ``repro verify``'s notes (:func:`unexcused`),
  whose excuses live in the table;
* the regime of each kernel certifier: on the corpus and on
  ``test_verify``'s rejection tables, what the static contract
  certifier says beside what a first-batch replay against the
  per-vertex interpreter says.
"""

import dataclasses
import importlib
import warnings

import numpy as np
import pytest

from repro.algorithms import SIGNAL_UDFS
from repro.algorithms.cc import cc_signal
from repro.analysis.ast_analysis import analyze_parsed, parse_signal
from repro.analysis.instrument import instrument_signal
from repro.analysis.kernelspec import FULL_SCAN_SUM
from repro.analysis.rules import LintMessage
from repro.analysis.verify import certify_spec, shape_note, verify_targets
from repro.engine import GeminiEngine, SympleGraphEngine
from repro.engine.fastpath import KERNEL, PATHS, PUSH, SLOT, Entry, unexcused
from repro.errors import KernelSoundnessError
from repro.graph import rmat, to_undirected
from repro.partition import OutgoingEdgeCut

from test_verify import (
    broken_count_signal,
    broken_first_match_signal,
    broken_min_signal,
    broken_sum_signal,
    else_branch_break_signal,
    else_branch_emit_signal,
    else_branch_max_signal,
    while_test_emit_signal,
)

cc_mod = importlib.import_module("repro.algorithms.cc")
bfs_mod = importlib.import_module("repro.algorithms.bfs")

GRAPH = to_undirected(rmat(scale=7, edge_factor=8, seed=21))


def arrays_of(state):
    return {
        name: (getattr(state, name).dtype, getattr(state, name).tobytes())
        for name in state
        if isinstance(getattr(state, name), np.ndarray)
    }


# -- the kernel row's warn policy ---------------------------------------------


def engine_of(engine_cls, verify, off=None):
    """An engine, on the scalar oracles when ``off`` (the
    ``interpreted`` fixture) is given."""
    engine = engine_cls(OutgoingEdgeCut().partition(GRAPH, 4), verify=verify)
    return engine if off is None else off(engine)


def two_cc_pulls(engine_cls, verify="off", off=None):
    """Two label-propagation pulls under ``cc_signal``'s spec claiming a
    sum; everything the run can be observed by."""
    engine = engine_of(engine_cls, verify, off)
    analyzed = engine.ensure_analyzed(cc_signal)
    analyzed.kernel = dataclasses.replace(analyzed.kernel, kind=FULL_SCAN_SUM)
    n = GRAPH.num_vertices
    state = engine.new_state()
    state.set("label", np.arange(n, dtype=np.int64))
    active = np.ones(n, dtype=bool)
    for _ in range(2):
        changed = engine.pull(cc_signal, cc_mod._min_slot, state, active)
        active = np.zeros(n, dtype=bool)
        active[changed.changed] = True
    outcome = (
        arrays_of(state), engine.counters.summary(), engine.execution_time()
    )
    return outcome, engine, analyzed, state


@pytest.mark.parametrize("engine_cls", [GeminiEngine, SympleGraphEngine])
class TestKernelWarn:
    def test_the_tamper_would_change_the_answer(self, interpreted,
                                                engine_cls):
        # the test below has teeth: run unchecked, the spec is wrong
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tampered = two_cc_pulls(engine_cls)[0]
        assert tampered != two_cc_pulls(engine_cls, off=interpreted)[0]

    def test_warns_once_answers_like_the_oracle_and_stays(self, interpreted,
                                                          engine_cls):
        with pytest.warns(
            RuntimeWarning, match="kernel fast path disabled for cc_signal"
        ) as w:
            warned, engine, analyzed, state = two_cc_pulls(engine_cls, "warn")
        assert len(w) == 1  # across both pulls
        assert warned == two_cc_pulls(engine_cls, off=interpreted)[0]
        assert engine.fastpaths.entry(KERNEL, cc_signal).verdict is False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert engine.fastpaths.plan(
                KERNEL, cc_signal, state, analyzed
            ) is None

    def test_strict_raises_the_certifiers_obligation(self, engine_cls):
        with pytest.raises(KernelSoundnessError) as err:
            two_cc_pulls(engine_cls, "strict")
        assert err.value.obligation == "fold-sum"


# -- one verdict per (function, path) -----------------------------------------


class TestVerdictsArePerPath:
    def test_a_refuted_slot_leaves_the_push_path(self):
        # one cache used to hold the slot and push verdicts by function
        # alone, so this False switched the push scan off too
        engine = engine_of(GeminiEngine, "warn")
        state = engine.new_state()
        state.add_array("visited", bool, False)
        fn = bfs_mod._push_signal
        engine.fastpaths.cache[id(fn), SLOT.name] = Entry(fn, None, False)
        assert engine.fastpaths.plan(PUSH, fn, state) is not None
        assert engine.fastpaths.checking(PUSH, fn)
        assert not engine.fastpaths.refuted(PUSH, fn)

    def test_switch_off_classifies_nothing(self, interpreted):
        engine = engine_of(GeminiEngine, "strict", interpreted)
        state = engine.new_state()
        for path in (SLOT, PUSH):
            assert engine.fastpaths.plan(path, cc_mod._min_slot, state) is None
        assert not engine.fastpaths.cache


# -- the gate on repro verify's notes -----------------------------------------


def unclassifiable_push_signal(u, v, s):
    return None if s.visited[v] else abs(u)


class TestGate:
    @pytest.fixture(scope="class")
    def report(self):
        return verify_targets(["src/repro/algorithms"], strict=True)

    def test_the_corpus_passes(self, report):
        assert unexcused(report.messages) == []

    def test_every_excuse_is_in_use(self, report):
        fell = {
            (m.code.partition("-")[0], m.func.rpartition(".")[2])
            for m in report.messages
            if m.code.endswith("-unclassified")
        }
        assert fell == {
            (path.name, name) for path in PATHS for name in path.excused
        }
        assert all(
            reason for path in PATHS for reason in path.excused.values()
        )

    def test_an_unclassifiable_bundled_push_signal_fails_it(self):
        name = "repro.algorithms.bfs._push_signal"
        note = shape_note(PUSH, unclassifiable_push_signal, name)
        assert note.code == "push-unclassified"
        assert unexcused([note]) == [f"push-unclassified: {name}"]

    def test_notes_of_other_codes_pass(self):
        assert unexcused([
            LintMessage("kernel-certified", "note", "x", func="a.b"),
            LintMessage("slot-unclassified", "note", "x",
                        func="repro.algorithms.sampling._select_slot"),
        ]) == []


# -- the regime of each kernel certifier --------------------------------------

CLASSIFIED = {
    fn.__name__: fn
    for fns in SIGNAL_UDFS.values()
    for fn in fns
    if instrument_signal(fn).kernel is not None
}

#: test_verify's rejection tables: a UDF, and the signal whose spec it
#: is checked against
REJECTIONS = {
    broken_first_match_signal: "bottom_up_signal",
    broken_count_signal: "kcore_signal",
    broken_sum_signal: "pagerank_signal",
    broken_min_signal: "cc_signal",
    else_branch_max_signal: "cc_signal",
    else_branch_break_signal: "kcore_signal",
    else_branch_emit_signal: "pagerank_signal",
    while_test_emit_signal: "pagerank_signal",
}

#: ``{udf: (static verdict, replay verdict)}``: ``certified`` or the
#: refuted obligation, and whether one pull over every vertex on the
#: kernel equals the same pull on the per-vertex interpreter.  The two
#: agree but once: the static certifier refuses ``broken_sum_signal``,
#: whose early break needs a sum over 100 that a first batch never
#: reaches; no row the replay refuses is certified.
REGIME = {
    "bottom_up_signal": ("certified", "same"),
    "cc_signal": ("certified", "same"),
    "kcore_signal": ("certified", "same"),
    "kmeans_signal": ("certified", "same"),
    "mis_signal": ("certified", "same"),
    "pagerank_signal": ("certified", "same"),
    "relax_depth_signal": ("certified", "same"),
    "scc_reach_signal": ("certified", "same"),
    "broken_first_match_signal": ("emit-then-break", "differs"),
    "broken_count_signal": ("fold-count", "differs"),
    "broken_sum_signal": ("no-break", "same"),
    "broken_min_signal": ("fold-min", "differs"),
    "else_branch_max_signal": ("fold-min", "differs"),
    "else_branch_break_signal": ("saturation-guard", "differs"),
    "else_branch_emit_signal": ("delta-emit", "differs"),
    "while_test_emit_signal": ("delta-emit", "differs"),
}


def static_verdict(udf, spec) -> str:
    sig = parse_signal(udf)
    try:
        certify_spec(sig, analyze_parsed(sig), spec)
    except KernelSoundnessError as exc:
        return exc.obligation
    return "certified"


def fill(state, spec, rng):
    """Random state for the fields ``spec`` reads: bool where read under
    a connective, small integers elsewhere (nonzero for the divisor)."""
    n = state.num_vertices
    for name in spec.arrays:
        if name in spec.bool_arrays:
            state.set(name, rng.random(n) < 0.5)
        else:
            low = 1 if name == "out_degree" else 0
            state.set(name, rng.integers(low, 4, size=n).astype(np.int64))
    for name in spec.scalars:
        state.add_scalar(name, 2)


def replay_verdict(udf, spec, interpreted) -> str:
    outcomes = []
    for off in (None, interpreted):
        engine = engine_of(GeminiEngine, "off", off)
        analyzed = instrument_signal(udf)
        analyzed.kernel = spec
        state = engine.new_state()
        fill(state, spec, np.random.default_rng(7))
        emitted = []

        def record(v, value, s):
            emitted.append((v, np.asarray(value).dtype.str, value))
            return False

        engine.pull(
            analyzed, record, state,
            np.ones(GRAPH.num_vertices, dtype=bool),
        )
        outcomes.append((emitted, engine.counters.summary()))
    return "same" if outcomes[0] == outcomes[1] else "differs"


CASES = {name: (fn, name) for name, fn in CLASSIFIED.items()}
CASES.update({fn.__name__: (fn, twin) for fn, twin in REJECTIONS.items()})


def test_regime_table_covers_the_cases():
    assert set(REGIME) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_certifier_regime(interpreted, case):
    udf, spec_of = CASES[case]
    spec = instrument_signal(CLASSIFIED[spec_of]).kernel
    with np.errstate(all="ignore"):
        got = (static_verdict(udf, spec),
               replay_verdict(udf, spec, interpreted))
    assert got == REGIME[case]

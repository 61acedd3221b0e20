"""The push phase as a kernel: classification, the flat scan, certification.

The push side of ``test_kernels.py`` and ``test_slot_shapes.py``:

* ``repro.analysis.pushspec`` — the corpus table ``{push signal:
  guarded_emit}`` is pinned by name with each compiled guard and value
  (a refactor that silently demotes one to the per-edge loop fails
  here, not later as a 1.7x benchmark regression), and near-miss
  signals classify to ``None`` and run exactly like their twin on the
  per-edge loop (the ``interpreted`` fixture);
* ``repro.kernels.csr.guarded_emit_scan`` through
  ``repro.exec.work.push_task`` — on random small directed graphs
  (self-loops, multi-edges, isolated and zero-out-degree frontier
  vertices, empty frontiers, more machines than vertices) every result
  key of the scan equals the per-edge loop's, arrays by dtype and
  bytes, and a whole ``engine.push`` equals its per-edge twin in
  result, state, counters and every send, on the serial and the
  process executor;
* the engine gate — a tampered ``PushSpec`` is refused under
  ``verify="strict"`` and dropped, with the right answer, under
  ``"warn"``.
"""

import contextlib
import dataclasses
import importlib
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.algorithms
from repro.analysis.pushspec import (
    GUARDED_EMIT,
    PushMismatch,
    classify_push,
    match_push,
)
from repro.api import RunConfig, Session
from repro.engine import GeminiEngine
from repro.engine.fastpath import PUSH
from repro.errors import KernelSoundnessError
from repro.exec import make_executor, work
from repro.graph import CSRGraph, rmat, to_undirected
from repro.partition import OutgoingEdgeCut

bfs_mod = importlib.import_module("repro.algorithms.bfs")
mis_mod = importlib.import_module("repro.algorithms.mis")


# -- (a) the corpus table ----------------------------------------------------

#: every module-level three-parameter ``*signal`` of the bundled
#: algorithms -> (shape, compiled guard, compiled value).  Both run in
#: the benchmark spine's push phases (``bfs_skew``, ``bfs_gemini``,
#: ``serve_hot``; MIS in the tier-1 matrix).
CORPUS = {
    "bfs._push_signal": (GUARDED_EMIT, "__state.visited[__v]", "__u"),
    "mis._deactivate_push_signal": (
        GUARDED_EMIT, "~__state.active[__v]", "True",
    ),
}


def corpus_push_signals():
    found = {}
    for info in pkgutil.iter_modules(repro.algorithms.__path__):
        module = importlib.import_module(f"repro.algorithms.{info.name}")
        for name, fn in vars(module).items():
            if (
                name.endswith("signal")
                and hasattr(fn, "__code__")
                and fn.__module__ == module.__name__
                and fn.__code__.co_argcount == 3
            ):
                found[f"{info.name}.{name}"] = fn
    return found


class TestCorpusTable:
    def test_pinned_by_name(self):
        table = {}
        for name, fn in corpus_push_signals().items():
            spec = classify_push(fn)
            table[name] = spec and (
                spec.shape, spec.sources.get("guard"), spec.sources["value"]
            )
        assert table == CORPUS

    def test_spec_contents(self):
        spec = classify_push(bfs_mod._push_signal)
        assert spec.arrays == ("visited",) and spec.scalars == ()
        assert spec.bool_arrays == ()  # a lone guard is taken by truth
        assert set(spec.exprs) == set(spec.sources) == {"guard", "value"}
        assert spec.describe() == (
            "guarded_emit of `__u` unless `__state.visited[__v]`"
        )
        spec = classify_push(mis_mod._deactivate_push_signal)
        assert spec.bool_arrays == ("active",)  # under the ternary's `not`

    def test_memoized_per_function(self):
        assert classify_push(bfs_mod._push_signal) is classify_push(
            bfs_mod._push_signal
        )

    def test_compatible_checks_layout_and_bools(self):
        spec = classify_push(mis_mod._deactivate_push_signal)
        engine = GeminiEngine(OutgoingEdgeCut().partition(rmat(scale=4, edge_factor=2, seed=1), 2))
        state = engine.new_state()
        assert not spec.compatible(state)  # field missing
        state.add_array("active", np.int64, 1)
        assert not spec.compatible(state)  # `not` over a non-bool array
        state.add_array("active", bool, True)
        assert spec.compatible(state)


# -- synthetic signals ---------------------------------------------------------


def scaled_signal(u, v, s):
    return s.w[u] * 2


def offset_signal(u, v, s):
    return u + s.i32[v]


def two_guard_signal(u, v, s):
    """The docstring is stripped."""
    if s.visited[v]:
        return None
    if u == v or s.w[u] < s.w[v]:
        return
    return s.w[v] - s.level


def quotient_signal(u, v, s):
    # by zero: NumPy's rules on both paths
    return s.w[u] // s.d[v]


def ratio_signal(u, v, s):
    return s.push_value[u] / s.d[v] if s.d[v] != s.level else None


def scalar_guard_signal(u, v, s):
    if not s.on or s.flag[u] and not s.visited[v]:
        return None
    return v


def constant_signal(u, v, s):
    return 1.5 if s.flag[v] else None


def compared_signal(u, v, s):
    if u > v:
        return None
    return s.w[u] > s.w[v]


def guarded_power_signal(u, v, s):
    # an integer to a negative power raises, in the loop and over
    # arrays alike: the value is only evaluated where the guard passes
    if s.e[v] < 0:
        return None
    return s.i32[u] ** s.e[v]


def sum_slot(v, value, s):
    # two folds: no scatter shape, so both twins apply the synthetic
    # signals' values (NaN, infinities, signed zeros) through the same
    # scalar loop and the comparison is about the push alone
    s.total[v] += float(value)
    s.count[v] += 1
    return True


BUNDLED = {
    bfs_mod._push_signal: bfs_mod._visit_slot,
    mis_mod._deactivate_push_signal: mis_mod._deactivate_slot,
}
SYNTHETIC = (
    scaled_signal, offset_signal, two_guard_signal, quotient_signal,
    ratio_signal, scalar_guard_signal, constant_signal, compared_signal,
    guarded_power_signal,
)
SIGNALS = {**BUNDLED, **{fn: sum_slot for fn in SYNTHETIC}}
RESULT_KEYS = {"m", "edges", "vertices", "owners", "emit_v", "emit_values"}


def random_graph(rng):
    """1-10 vertices, 0-40 edges drawn with replacement: self-loops,
    multi-edges and isolated vertices all occur."""
    n = int(rng.integers(1, 11))
    m = int(rng.integers(0, 41))
    return CSRGraph(n, rng.integers(0, n, m), rng.integers(0, n, m))


def random_field(rng, n, dtype):
    if dtype is bool:
        return rng.random(n) < 0.5
    values = rng.integers(-3, 6, n).astype(dtype)
    if np.dtype(dtype).kind == "f":
        wide = rng.random(n) * 10.0 ** rng.integers(-8, 9, n)
        odd = rng.choice([np.nan, np.inf, -np.inf, -0.0], n)
        pick = rng.random(n)
        values = np.where(pick < 0.4, wide, values)
        values = np.where(pick > 0.9, odd, values).astype(dtype)
    return values


def fill_state(rng, state):
    """Every field the signals and their slots touch, over random
    dtypes (bool / int64 / float64 / float32 for the free ones)."""
    n = state.num_vertices
    free = [bool, np.int64, np.float64, np.float32]
    for name in ("visited", "active", "flag", "next_frontier"):
        state.set(name, random_field(rng, n, bool))
    state.set("push_value", random_field(rng, n, np.float64))
    state.set("w", random_field(rng, n, free[rng.integers(4)]))
    state.set("d", random_field(rng, n, free[rng.integers(1, 4)]))
    i32 = rng.integers(-5, 50, n)
    if rng.random() < 0.3:  # u + s.i32[v] past int32: the cast misses
        i32[rng.integers(0, n)] = np.iinfo(np.int32).max - 1
    state.set("i32", i32.astype(np.int32))
    state.set("e", rng.integers(-2, 4, n))
    state.set("parent", np.full(n, -1, dtype=np.int64))
    state.set("depth", np.full(n, -1, dtype=np.int64))
    state.add_array("residual", np.float64, 0.0)
    state.add_array("total", np.float64, 0.0)
    state.add_array("count", np.int64, 0)
    state.add_scalar("level", int(rng.integers(0, 4)))
    state.add_scalar("on", bool(rng.random() < 0.8))


def random_frontier(rng, n):
    return np.flatnonzero(rng.random(n) < rng.choice([0.0, 0.3, 1.0]))


@contextlib.contextmanager
def quiet():
    """The loop's NumPy scalars warn on overflow and division by zero
    where the scan's arrays may not; the answers are the same."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.filterwarnings("ignore", message=".* encountered in ")
        yield


def same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            type(a) is type(b)
            and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
        )
    return type(a) is type(b) and a == b


def arrays_of(state):
    return {
        name: (getattr(state, name).dtype, getattr(state, name).tobytes())
        for name in state
        if isinstance(getattr(state, name), np.ndarray)
    }


def one_push(graph, machines, signal, seed, off=None, executor=None,
             verify="off", everyone=False):
    """One push phase on a seeded random state and frontier — or from
    every vertex — into the signal's slot of ``SIGNALS``, else
    ``sum_slot``; everything it can be observed by.  ``off`` (the
    ``interpreted`` fixture) puts it on the per-edge loop."""
    engine = GeminiEngine(
        OutgoingEdgeCut().partition(graph, machines),
        executor=executor, verify=verify,
    )
    if off is not None:
        off(engine)
    engine.network.trace = True
    rng = np.random.default_rng(seed)
    state = engine.new_state()
    fill_state(rng, state)
    frontier = random_frontier(rng, graph.num_vertices)
    if everyone:
        frontier = np.arange(graph.num_vertices)
    with quiet():
        result = engine.push(
            signal, SIGNALS.get(signal, sum_slot), state, frontier
        )
    return (
        result.changed.tolist(),
        result.updates_applied,
        result.edges_traversed,
        arrays_of(state),
        engine.counters.summary(),
        engine.execution_time(),
        list(engine.network.log),
    ), engine


# -- (b) the scan equals the loop ------------------------------------------------


class TestScanMatchesLoop:
    @pytest.mark.parametrize(
        "signal", list(SIGNALS), ids=lambda fn: fn.__name__
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        machines=st.sampled_from([1, 3, 12]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_result_key(self, signal, seed, machines):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng)
        engine = GeminiEngine(OutgoingEdgeCut().partition(graph, machines))
        ctx = engine.executor._ctx
        ctx.state = engine.new_state()
        fill_state(rng, ctx.state)
        assert classify_push(signal).compatible(ctx.state)
        shared = {
            "signal": signal,
            "frontier": random_frontier(rng, graph.num_vertices),
        }
        for m in range(machines):
            with quiet():
                scan, loop = (
                    work.push_task(
                        ctx, {**shared, "use_kernel": uk}, {"m": m}
                    )
                    for uk in (True, False)
                )
            assert set(scan) == set(loop) == RESULT_KEYS
            for key in RESULT_KEYS:
                assert same(scan[key], loop[key]), (m, key)

    @pytest.mark.parametrize(
        "signal", list(SIGNALS), ids=lambda fn: fn.__name__
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        machines=st.sampled_from([1, 3, 12]),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_whole_phase_equals_its_twin(self, interpreted, signal, seed,
                                         machines):
        # the fixture patches each example's own engine, nothing shared
        graph = random_graph(np.random.default_rng(seed))
        fast, engine = one_push(graph, machines, signal, seed)
        oracle, _ = one_push(graph, machines, signal, seed, interpreted)
        assert engine.fastpaths.entry(PUSH, signal).spec is not None
        assert fast == oracle

    @pytest.mark.parametrize(
        "signal", list(SIGNALS), ids=lambda fn: fn.__name__
    )
    def test_process_executor_equals_serial_twin(self, interpreted, signal):
        executor = make_executor("process", workers=2)
        try:
            for seed in (5, 6, 7):
                graph = random_graph(np.random.default_rng(seed))
                fast, _ = one_push(graph, 3, signal, seed, None, executor)
                assert executor.last_fallback is None  # it did fan out
                assert fast == one_push(
                    graph, 3, signal, seed, interpreted
                )[0]
        finally:
            executor.close()

    @pytest.mark.parametrize(
        "signal", list(BUNDLED) + [scaled_signal, two_guard_signal],
        ids=lambda fn: fn.__name__,
    )
    def test_the_scan_does_run(self, signal):
        # the properties above are not passing because every unit fell
        # back to the loop
        graph = to_undirected(rmat(scale=6, edge_factor=4, seed=2))
        engine = GeminiEngine(OutgoingEdgeCut().partition(graph, 2))
        ctx = engine.executor._ctx
        ctx.state = engine.new_state()
        fill_state(np.random.default_rng(1), ctx.state)
        ctx.state.set("visited", np.arange(graph.num_vertices) % 2 == 0)
        local = ctx.local_out(0)
        cand = np.flatnonzero(local.degrees() > 0)
        edges, emit_v, values = work._push_scan(ctx, signal, local, cand)
        assert edges == int(local.degrees()[cand].sum()) > 0
        assert emit_v.size == values.size > 0

    def test_weak_scalar_dtype_is_the_loops(self):
        # u + s.i32[v] is int32 in the loop (a Python int is weak) and
        # int64 over arrays: one probe, one exact cast — or the loop
        graph = CSRGraph(4, [0, 0, 1, 3], [1, 2, 3, 0])
        engine = GeminiEngine(OutgoingEdgeCut().partition(graph, 1))
        ctx = engine.executor._ctx
        ctx.state = engine.new_state()
        ctx.state.set("i32", np.array([7, 8, 9, 10], dtype=np.int32))
        local, cand = ctx.local_out(0), np.array([0, 1, 3])
        edges, emit_v, values = work._push_scan(
            ctx, offset_signal, local, cand
        )
        assert values.dtype == np.int32
        assert values.tolist() == [8, 9, 11, 10]
        ctx.state.i32[0] = np.iinfo(np.int32).max  # 3 + max wraps there
        assert work._push_scan(ctx, offset_signal, local, cand) is None
        ctx.state.set("i32", np.arange(4, dtype=np.float32))  # float32 sum
        assert work._push_scan(ctx, offset_signal, local, cand) is None


# -- (c) rejections -----------------------------------------------------------------

LIMIT = 3


def make_closure_signal():
    limit = 3

    def closure_signal(u, v, s):
        return u if s.w[v] < limit else None

    return closure_signal


def free_name_signal(u, v, s):
    return u if s.w[v] < LIMIT else None


def call_signal(u, v, s):
    return abs(s.i32[u])


def none_signal(u, v, s):
    if s.visited[v]:
        return None
    return None


def trailing_signal(u, v, s):
    if s.visited[v]:
        return None
    return u
    s.level  # noqa: B018 - a statement after the return


def local_signal(u, v, s):
    parent = u
    return parent


def chained_signal(u, v, s):
    if 0 <= s.w[v] < 3:
        return None
    return u


def number_under_and_signal(u, v, s):
    if u and s.flag[v]:
        return None
    return u


def writing_signal(u, v, s):
    s.w[v] = 0
    return u


def connective_value_signal(u, v, s):
    return s.flag[u] and s.on


def id_arithmetic_signal(u, v, s):
    # Python ints: past int64 the loop keeps counting and arrays wrap
    return u * 4611686018427387904 + v


def id_division_signal(u, v, s):
    # ZeroDivisionError in the loop, inf or 0 over arrays
    return s.w[u] + u // v


def nested_id_signal(u, v, s):
    # int32 inside, bool outside: no result dtype to tell the paths apart
    if u + s.i32[v] < s.i32[u]:
        return None
    return u


def keyword_signal(u, v, s, scale=2):
    return u


NEAR_MISSES = {
    "closure": (make_closure_signal(), "closes over limit"),
    "free name": (free_name_signal, "free variable 'LIMIT'"),
    "call in the value": (call_signal, "unsupported expression node Call"),
    "None as the value": (none_signal, "does not end with `return <expr>`"),
    "trailing statement": (trailing_signal, "does not end with"),
    "residual statement": (local_signal, "may precede the return"),
    "chained comparison": (chained_signal, "chained comparison"),
    "number under and": (number_under_and_signal, "not a truth value"),
    "state write": (writing_signal, "may precede the return"),
    "connective in the value": (connective_value_signal, "in a value"),
    "ids past int64": (id_arithmetic_signal, "used as a number"),
    "ids under //": (id_division_signal, "used as a number"),
    "nested id arithmetic": (nested_id_signal, "used as a number"),
    "default argument": (keyword_signal, "not a plain undecorated"),
}


class TestRejections:
    @pytest.mark.parametrize("case", sorted(NEAR_MISSES))
    def test_classifies_to_none_with_a_reason(self, case):
        signal, reason = NEAR_MISSES[case]
        assert classify_push(signal) is None
        with pytest.raises(PushMismatch, match=reason):
            match_push(signal)

    def test_unanalyzable_callables(self):
        assert classify_push(lambda u, v, s: u) is None
        assert classify_push(len) is None

    graph = to_undirected(rmat(scale=5, edge_factor=3, seed=9))

    @pytest.fixture(autouse=True)
    def _oracle(self, interpreted):
        self.interpreted = interpreted

    def twins(self, signal, seed=4):
        fast, engine = one_push(self.graph, 3, signal, seed, everyone=True)
        oracle, _ = one_push(
            self.graph, 3, signal, seed, self.interpreted, everyone=True
        )
        return fast, oracle, engine

    @pytest.mark.parametrize(
        "case", sorted(set(NEAR_MISSES) - {"ids under //"})
    )
    def test_run_matches_oracle_twin(self, case):
        signal, _ = NEAR_MISSES[case]
        fast, oracle, engine = self.twins(signal)
        assert engine.fastpaths.entry(PUSH, signal).spec is None
        assert fast == oracle
        assert fast[2] > 0  # the phase did scan edges

    def test_lambda_runs_on_the_loop(self):
        signal = lambda u, v, s: None if s.visited[v] else u  # noqa: E731
        fast, oracle, engine = self.twins(signal)
        assert engine.fastpaths.entry(PUSH, signal).spec is None
        assert fast == oracle and fast[1] > 0

    def test_non_bool_under_a_connective_is_a_layout_miss(self):
        # classified (the dtype is a run-time fact), refused by the
        # layout check, so the loop runs and Python's `and` answers
        def weighted_signal(u, v, s):
            if s.w[v] and s.flag[v]:
                return None
            return u

        spec = classify_push(weighted_signal)
        assert spec.bool_arrays == ("w", "flag")
        ran = set()
        for seed in range(8):  # w draws bool / int64 / float64 / float32
            fast, oracle, engine = self.twins(weighted_signal, seed)
            assert fast == oracle
            ran.add(engine.fastpaths.plan(
                PUSH, weighted_signal, _state_of(engine, seed)
            ) is not None)
        assert ran == {True, False}

    def test_interpreted_never_classifies(self):
        _, engine = one_push(
            self.graph, 3, bfs_mod._push_signal, 4, self.interpreted,
            everyone=True,
        )
        assert not engine.fastpaths.cache


def _state_of(engine, seed):
    state = engine.new_state()
    fill_state(np.random.default_rng(seed), state)
    return state


# -- (d) translation validation ------------------------------------------------------


@pytest.fixture
def tampered(monkeypatch):
    """Workers that derive a ``_push_signal`` spec offering each vertex
    as its own parent."""
    spec = classify_push(bfs_mod._push_signal)
    wrong = dataclasses.replace(
        spec, exprs={**spec.exprs, "value": lambda state, u, v: v}
    )
    monkeypatch.setattr(
        work, "classify_push",
        lambda fn: wrong if fn is bfs_mod._push_signal
        else classify_push(fn),
    )


class TestPushCertification:
    graph = to_undirected(rmat(scale=6, edge_factor=4, seed=21))
    signal = staticmethod(bfs_mod._push_signal)

    @pytest.fixture(autouse=True)
    def _oracle(self, interpreted):
        self.interpreted = interpreted

    def push(self, verify="off", off=None):
        return one_push(
            self.graph, 4, self.signal, 3, off, verify=verify,
            everyone=True,
        )

    def oracle(self):
        return self.push(off=self.interpreted)[0]

    def test_pristine_signal_certifies_once(self):
        outcome, engine = self.push("strict")
        assert engine.fastpaths.entry(PUSH, self.signal).verdict is True
        assert outcome == self.oracle()

    def test_strict_refuses_a_tampered_spec(self, tampered):
        with pytest.raises(KernelSoundnessError) as exc_info:
            self.push("strict")
        assert exc_info.value.obligation == "push-equivalence"
        assert "_push_signal" in str(exc_info.value)
        assert "['emit_values']" in str(exc_info.value)

    def test_warn_drops_it_and_answers_like_the_oracle(self, tampered):
        with pytest.warns(RuntimeWarning, match="push fast path disabled") as w:
            outcome, engine = self.push("warn")
            # the verdict is cached: a second phase neither warns again
            # nor takes the scan
            state = _state_of(engine, 3)
            engine.push(
                self.signal, bfs_mod._visit_slot, state,
                np.arange(self.graph.num_vertices),
            )
        assert len(w) == 1
        assert engine.fastpaths.entry(PUSH, self.signal).verdict is False
        assert engine.fastpaths.plan(PUSH, self.signal, state) is None
        assert outcome == self.oracle()

    def test_warned_run_digests_like_the_oracle(self, tampered):
        def digest(**config):
            with Session(self.graph, RunConfig(
                engine="symple", algorithm="bfs", machines=4, seed=3,
                bfs_roots=2, **config,
            )) as session:
                return session.run().digest()

        with pytest.warns(RuntimeWarning, match="push fast path disabled") as w:
            warned = digest(verify="warn")
        assert len(w) == 1
        self.interpreted()
        assert warned == digest()

    def test_off_never_replays(self):
        _, engine = self.push()
        assert engine.fastpaths.entry(PUSH, self.signal).verdict is None


# -- the verify report --------------------------------------------------------------------


class TestVerifyReport:
    def test_every_corpus_push_signal_gets_a_note(self):
        from repro.analysis.verify import verify_targets

        report = verify_targets(["src/repro/algorithms"], strict=True)
        assert report.exit_code == 0  # notes only: the strict CI job holds
        notes = {
            m.func.rpartition(".")[2]: m
            for m in report.messages if m.code.startswith("push-")
        }
        assert set(notes) == {name.split(".")[1] for name in CORPUS}
        # what the verify-corpus job greps for
        assert {m.code for m in notes.values()} == {"push-classified"}
        push = notes["_push_signal"]
        assert push.level == "note"
        assert "`__u` unless `__state.visited[__v]`" in push.message
        assert push.path.endswith("bfs.py") and push.lineno > 0

    def test_unclassified_note_carries_the_reason(self):
        from repro.analysis.verify import shape_note

        note = shape_note(PUSH, chained_signal)
        assert note.code == "push-unclassified" and note.level == "note"
        assert "per-edge loop runs (chained comparison)" in note.message

    def test_sarif_carries_the_notes(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "verify.sarif"
        assert main([
            "verify", "src/repro/algorithms/mis.py", "--strict",
            "--format", "sarif", "--output", str(out),
        ]) == 0
        results = json.loads(out.read_text())["runs"][0]["results"]
        (note,) = [r for r in results if r["ruleId"] == "push-classified"]
        assert "unless `~__state.active[__v]`" in note["message"]["text"]

    def test_lint_counts_push_signals_and_stays_clean(self):
        from repro.analysis.rules import iter_rules
        from repro.analysis.verify import verify_targets

        report = verify_targets(["src/repro/algorithms"])
        assert report.exit_code == 0
        # 22 signals and slots + 2 push signals
        assert "verified 24 UDF(s)" in report.summary()
        rules = {spec.code for spec in iter_rules()}
        notes = [m for m in report.messages if m.code in rules and m.level == "note"]
        assert len(notes) == 4

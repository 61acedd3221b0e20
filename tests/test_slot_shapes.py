"""Slot shapes: classification, the ordered scatters, certification.

The slot side of ``test_kernels.py``:

* ``repro.analysis.slotspec`` — the corpus table ``{slot: shape}`` is
  pinned by name (a refactor that silently demotes a slot to the scalar
  loop fails here, not later as a benchmark regression), and near-miss
  slots classify to ``None`` and run exactly like their twin on the
  scalar slot loop (the ``interpreted`` fixture);
* ``repro.kernels.slots`` — on random duplicate-heavy bins every
  scatter leaves the state bytewise equal to the scalar slot loop's,
  with the same ``changed`` (order included) and count; the
  ``full_scan_sum`` kernel meets the same adversarial magnitudes, so a
  NumPy whose ``add.at`` ever reorders fails a test instead of drifting
  a digest;
* the engine gate — a tampered ``SlotSpec`` is refused under
  ``verify="strict"`` and dropped, with the right answer, under
  ``"warn"``.
"""

import dataclasses
import importlib
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms
from repro.algorithms.bfs import AsyncBFSProgram
from repro.analysis.instrument import instrument_signal
from repro.analysis.slotspec import (
    ACCUMULATE,
    FIRST_WINS,
    MAX_FOLD,
    MIN_FOLD,
    SlotMismatch,
    classify_slot,
    match_slot,
)
from repro.engine import GeminiEngine, SympleGraphEngine
from repro.engine.base import _UpdateBuffer
from repro.engine.fastpath import SLOT, Entry
from repro.engine.state import StateStore
from repro.errors import KernelSoundnessError
from repro.fault.program import run_program
from repro.graph import rmat, to_undirected
from repro.kernels import get_kernel, slots
from repro.kernels.slots import SLOT_APPLIES, apply_slot
from repro.partition import OutgoingEdgeCut
from repro.partition.base import LocalAdjacency

bfs_mod = importlib.import_module("repro.algorithms.bfs")
cc_mod = importlib.import_module("repro.algorithms.cc")
inc_mod = importlib.import_module("repro.algorithms.incremental")
kcore_mod = importlib.import_module("repro.algorithms.kcore")
kmeans_mod = importlib.import_module("repro.algorithms.kmeans")
mis_mod = importlib.import_module("repro.algorithms.mis")
pr_mod = importlib.import_module("repro.algorithms.pagerank")
sampling_mod = importlib.import_module("repro.algorithms.sampling")
scc_mod = importlib.import_module("repro.algorithms.scc")
sssp_mod = importlib.import_module("repro.algorithms.sssp")


# -- the corpus table ------------------------------------------------------

#: every module-level ``*slot`` of the bundled algorithms -> its shape.
#: ``_visit_slot``, ``_count_slot``, ``_accumulate_slot``, ``_min_slot``
#: and ``_depth_slot`` are the benchmark spine's; ``None`` rows are
#: deliberate (see ``TestRejections``).
CORPUS = {
    "bfs._async_visit_slot": None,
    "bfs._visit_slot": FIRST_WINS,
    "cc._min_slot": MIN_FOLD,
    "incremental._depth_slot": MIN_FOLD,
    "kcore._count_slot": ACCUMULATE,
    "kmeans._assign_slot": FIRST_WINS,
    "mis._deactivate_slot": FIRST_WINS,
    "mis._not_minimum_slot": FIRST_WINS,
    "pagerank._accumulate_slot": ACCUMULATE,
    "sampling._select_slot": None,
    "scc._reach_slot": FIRST_WINS,
    "sssp._relax_slot": MIN_FOLD,
}


def corpus_slots():
    found = {}
    for info in pkgutil.iter_modules(repro.algorithms.__path__):
        module = importlib.import_module(f"repro.algorithms.{info.name}")
        for name, fn in vars(module).items():
            if (
                name.endswith("slot")
                and callable(fn)
                and getattr(fn, "__module__", None) == module.__name__
            ):
                found[f"{info.name}.{name}"] = fn
    return found


class TestCorpusTable:
    def test_pinned_by_name(self):
        table = {
            name: getattr(classify_slot(fn), "shape", None)
            for name, fn in corpus_slots().items()
        }
        assert table == CORPUS

    def test_every_shape_has_a_scatter(self):
        assert set(SLOT_APPLIES) == {
            FIRST_WINS, MIN_FOLD, MAX_FOLD, ACCUMULATE,
        }

    def test_spec_contents(self):
        spec = classify_slot(bfs_mod._visit_slot)
        assert spec.fields == ("visited", "parent", "depth", "next_frontier")
        assert spec.scalars == ("level",)
        assert spec.returns is True
        assert spec.casts == {"parent": None}  # the only value read
        assert spec.describe().startswith("first_wins over visited")
        clear = classify_slot(mis_mod._not_minimum_slot)
        assert clear.returns is False  # the idempotent-clear spelling
        assert clear.bool_arrays == ("candidate",)
        assert classify_slot(kcore_mod._count_slot).casts == {"count": "int"}

    def test_max_fold(self):
        def widest_slot(v, value, s):
            if value > s.best[v]:
                s.best[v] = value
                return True
            return False

        assert classify_slot(widest_slot).shape == MAX_FOLD

    def test_compatible_checks_layout_and_dtypes(self):
        spec = classify_slot(pr_mod._accumulate_slot)
        state = StateStore(4)
        assert not spec.compatible(state)  # field missing
        state.add_array("incoming", np.float32, 0.0)
        assert not spec.compatible(state)  # not a dtype the scatters cover
        state.add_array("incoming", np.float64, 0.0)
        assert spec.compatible(state)
        guard = classify_slot(mis_mod._deactivate_slot)
        state.add_array("active", np.int64, 1)
        assert not guard.compatible(state)  # `not` over a non-bool array
        state.add_array("active", bool, True)
        assert guard.compatible(state)


# -- (a) vector equals scalar -------------------------------------------------

def accumulate_changed_slot(v, value, s):
    # every bundled accumulate returns False; this one reports each
    # updated vertex, so the scatter's ``changed`` is compared too
    s.residual[v] += value
    return True


#: classified slot -> its state layout (arrays by dtype, scalars by value)
LAYOUTS = {
    bfs_mod._visit_slot: (
        {"visited": bool, "parent": np.int64, "depth": np.int64,
         "next_frontier": bool},
        {"level": 3},
    ),
    kmeans_mod._assign_slot: (
        {"assigned": bool, "cluster": np.int64, "dist": np.int64},
        {"level": 2},
    ),
    scc_mod._reach_slot: ({"reached": bool}, {}),
    mis_mod._deactivate_slot: ({"active": bool}, {}),
    mis_mod._not_minimum_slot: ({"candidate": bool}, {}),
    cc_mod._min_slot: ({"label": np.int64}, {}),
    inc_mod._depth_slot: ({"depth": np.int64}, {}),
    sssp_mod._relax_slot: ({"dist": np.float64}, {}),
    pr_mod._accumulate_slot: ({"incoming": np.float64}, {}),
    accumulate_changed_slot: ({"residual": np.float64}, {}),
    kcore_mod._count_slot: ({"count": np.int64}, {}),
}
N = 12


def random_values(rng, size, dtype, whole, zeros=(0.0, -0.0), odd=True):
    """Values with ties, zeros of the given signs, magnitudes
    1e-16 … 1e16 and (``odd``) a few non-finite ones."""
    small = rng.integers(-4, 16, size)
    if np.dtype(dtype).kind == "i" or whole:
        return small.astype(dtype)
    wide = (
        rng.choice([-1.0, 1.0], size) * rng.random(size)
        * 10.0 ** rng.integers(-16, 17, size)
    )
    pick = rng.random(size)
    values = np.where(pick < 0.15, small, wide)
    values = np.where(pick > 0.96, rng.choice(zeros, size), values)
    if odd:
        weird = rng.choice([np.nan, np.inf, -np.inf], size)
        values = np.where(pick > 0.99, weird, values)
    return values.astype(dtype)


def random_state(rng, slot):
    arrays, scalars = LAYOUTS[slot]
    state = StateStore(N)
    for name, dtype in arrays.items():
        if dtype is bool:
            state.set(name, rng.random(N) < 0.4)
        else:
            state.set(name, random_values(rng, N, dtype, whole=False))
    for name, value in scalars.items():
        state.add_scalar(name, value)
    return state


def random_bins(rng, dtype, mixed):
    """Each vertex 0-64 times, shuffled, cut into bins at random points;
    ``mixed`` gives each bin int64 or float64 whole numbers (what one
    phase of the K-core kernel produces).  Half the draws keep to
    finite values and a third to one sign of zero — the inputs the
    exactness gates let through."""
    v = rng.permutation(np.repeat(np.arange(N), rng.integers(0, 65, N)))
    cuts = np.sort(rng.integers(0, v.size + 1, rng.integers(0, 6)))
    zeros = ([0.0], [-0.0], [0.0, -0.0])[rng.integers(3)]
    odd = bool(rng.integers(2))
    bins = []
    for lo, hi in zip([0, *cuts], [*cuts, v.size]):
        if hi > lo:
            kind = rng.choice([np.int64, np.float64]) if mixed else dtype
            bins.append((
                v[lo:hi],
                random_values(rng, hi - lo, kind, mixed, zeros, odd),
            ))
    return bins


def twin(state):
    copy = StateStore(state.num_vertices)
    for name, value in state.snapshot().items():
        copy.set(name, value)
    return copy


def arrays_of(state):
    return {
        name: (getattr(state, name).dtype, getattr(state, name).tobytes())
        for name in state
        if isinstance(getattr(state, name), np.ndarray)
    }


def scalar_loop(slot, state, bins):
    buffer = _UpdateBuffer()
    for v, values in bins:
        buffer.append(v, values)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        return buffer.apply(slot, state)


class TestScattersMatchScalarLoop:
    @pytest.mark.parametrize(
        "slot", list(LAYOUTS), ids=lambda fn: fn.__name__
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.int64, np.float32, np.float64]),
        mixed=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bytewise_equal(self, slot, seed, dtype, mixed):
        rng = np.random.default_rng(seed)
        spec = classify_slot(slot)
        state = random_state(rng, slot)
        bins = random_bins(rng, dtype, mixed)
        if not bins:
            return
        assert spec.compatible(state)
        before = arrays_of(state)
        scattered = twin(state)
        with np.errstate(all="ignore"):
            changed = apply_slot(spec, scattered, bins)
        if changed is None:
            # a gate miss is decided before anything is written
            assert arrays_of(scattered) == before
            return
        want_changed, want_applied = scalar_loop(slot, state, bins)
        assert arrays_of(scattered) == arrays_of(state)
        assert changed.dtype == np.int64
        assert changed.tolist() == want_changed.tolist()
        assert sum(v.size for v, _ in bins) == want_applied

    @pytest.mark.parametrize(
        "slot,dtype",
        [
            (bfs_mod._visit_slot, np.int64),
            (kmeans_mod._assign_slot, np.float64),  # int(value)
            (scc_mod._reach_slot, np.float32),  # never reads the value
            (cc_mod._min_slot, np.int64),
            (sssp_mod._relax_slot, np.float32),
            (pr_mod._accumulate_slot, np.float32),
            (pr_mod._accumulate_slot, np.int64),
            (kcore_mod._count_slot, np.int64),
        ],
        ids=lambda x: getattr(x, "__name__", None),
    )
    def test_native_values_take_the_scatter(self, slot, dtype):
        # the property above must not pass by always falling back
        rng = np.random.default_rng(3)
        bins = random_bins(rng, dtype, mixed=False)
        state = random_state(rng, slot)
        # finite, and no -0.0 to tie with a +0.0
        bins = [(v, np.nan_to_num(x, posinf=1.0) + 0) for v, x in bins]
        assert apply_slot(classify_slot(slot), state, bins) is not None

    def test_whole_float_bins_fold_into_int_fields(self):
        # carried state keeps its fold's dtype, so an int fold only meets
        # a float bin from a UDF whose carry could not be typed: the
        # fold's scatter refuses it untouched and the scalar loop folds
        # it; K-core's `int(value)` accumulate still scatters it
        rng = np.random.default_rng(11)
        for slot in (cc_mod._min_slot, kcore_mod._count_slot):
            state = random_state(rng, slot)
            bins = random_bins(rng, None, mixed=True)
            assert {values.dtype.kind for _, values in bins} == {"i", "f"}
            scattered = twin(state)
            changed = apply_slot(classify_slot(slot), scattered, bins)
            assert (changed is None) == (slot is cc_mod._min_slot)
            if changed is None:
                assert arrays_of(scattered) == arrays_of(state)
                changed, _ = scalar_loop(slot, scattered, bins)
            want_changed, _ = scalar_loop(slot, state, bins)
            assert changed.tolist() == want_changed.tolist()
            assert arrays_of(scattered) == arrays_of(state)

    def test_inexact_values_fall_back_untouched(self):
        spec = classify_slot(cc_mod._min_slot)
        state = StateStore(3)
        state.set("label", np.array([5, 5, 5]))
        v = np.array([0, 1])
        for values in (
            np.array([2.5, 1.0]),  # would truncate on store
            np.array([2.0**60, 1.0]),  # float64 cannot order it exactly
            np.array([np.nan, 1.0]),
            [2, 1],  # a list bin
            np.array([[2], [1]]),  # not 1-D
        ):
            assert apply_slot(spec, state, [(v, values)]) is None
            assert state.label.tolist() == [5, 5, 5]
        count = classify_slot(kcore_mod._count_slot)
        state.set("count", np.zeros(3, dtype=np.int64))
        assert apply_slot(count, state, [(v, np.array([np.inf, 1.0]))]) is None
        assert state.count.tolist() == [0, 0, 0]

    def test_tied_zeros_of_both_signs_fall_back(self):
        # the scalar loop keeps the first of two tied zeros, the scatter
        # whichever its tie-break picks: not reproducible, so not tried
        spec = classify_slot(sssp_mod._relax_slot)
        state = StateStore(1)
        state.set("dist", np.array([5.0]))
        v = np.array([0, 0])
        assert apply_slot(spec, state, [(v, np.array([-0.0, 0.0]))]) is None
        assert apply_slot(spec, state, [(v, np.array([0.0, 0.0]))]) is not None

    def test_nans_of_both_signs_fall_back(self):
        # where two NaNs meet in one sum, add.at keeps the first one's
        # sign bit and the loop's += the last one's: not tried
        spec = classify_slot(pr_mod._accumulate_slot)
        v = np.array([0, 0])
        for cell, values in (
            (0.0, [np.nan, -np.nan]),
            (0.0, [-np.nan, np.nan]),
            (-np.nan, [1.0, np.nan]),
            (np.inf, [-np.inf, np.nan]),  # the sum makes its own NaN
        ):
            state = StateStore(1)
            state.set("incoming", np.array([cell]))
            before = arrays_of(state)
            assert apply_slot(spec, state, [(v, np.array(values))]) is None
            assert arrays_of(state) == before
        # a NaN cell under finite values keeps its sign either way
        state = StateStore(1)
        state.set("incoming", np.array([-np.nan]))
        scattered = twin(state)
        bins = [(v, np.array([1.0, 2.0]))]
        assert apply_slot(spec, scattered, bins) is not None
        scalar_loop(pr_mod._accumulate_slot, state, bins)
        assert arrays_of(scattered) == arrays_of(state)

    def test_scatter_writes_in_place(self):
        # the arrays may be shared-memory views: never rebind a field
        for slot in LAYOUTS:
            rng = np.random.default_rng(5)
            state = random_state(rng, slot)
            held = {name: getattr(state, name) for name in state}
            bins = random_bins(rng, np.int64, mixed=False)
            assert apply_slot(classify_slot(slot), state, bins) is not None
            assert all(getattr(state, name) is held[name] for name in held)


class TestFullScanSumOrder:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=40, deadline=None)
    def test_matches_left_to_right_addition(self, seed, dtype):
        def toy(v, nbrs, s, emit):
            total = s.base[v]
            start = total
            for u in nbrs:
                total += s.contrib[u]
            if total > start:
                emit(total - start)

        rng = np.random.default_rng(seed)
        n = 24
        lens = rng.integers(0, 65, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        local = LocalAdjacency(
            indptr, rng.integers(0, n, int(lens.sum())), None
        )
        state = StateStore(n)
        finite = lambda x: np.nan_to_num(x, nan=0.0, posinf=1.0)  # noqa: E731
        state.set("base", finite(random_values(rng, n, np.float64, False)))
        state.set("contrib", finite(random_values(rng, n, dtype, False)))
        spec = instrument_signal(toy).kernel
        vertices = np.flatnonzero(lens)
        with np.errstate(all="ignore"):
            batch = get_kernel(spec.kind)(spec, state, local, vertices)
            for i, v in enumerate(vertices.tolist()):
                total = state.base[v]
                for u in local.neighbors(v):
                    total += state.contrib[u]
                assert batch.carried[i].tobytes() == total.tobytes()
                assert batch.emit_mask[i] == (total > state.base[v])
                if batch.emit_mask[i]:
                    delta = total - state.base[v]
                    assert batch.values[i].tobytes() == delta.tobytes()
        assert np.array_equal(batch.edges, lens[vertices])


def sorted_first_seen(v):
    """The sort formulation: ``np.unique``'s first indices, reordered
    by position."""
    distinct, first = np.unique(v, return_index=True)
    order = np.argsort(first)
    return distinct[order], first[order]


class TestFirstSeen:
    @given(
        n=st.integers(1, 50),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sort(self, n, data):
        """Empty, one element, all duplicates and ids up to ``n - 1``
        all come back as the sort gives them, dtypes included."""
        ids = st.integers(0, n - 1)
        v = np.array(data.draw(st.one_of(
            st.just([]),
            ids.map(lambda i: [i]),
            st.tuples(ids, st.integers(1, 20)).map(lambda t: [t[0]] * t[1]),
            st.lists(ids, max_size=60),
            st.lists(st.just(n - 1), min_size=1).map(lambda tail: [0, *tail]),
        )), dtype=np.int64)
        got, want = slots._first_seen(v), sorted_first_seen(v)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# -- (b) near-misses fall back ------------------------------------------------


def extra_statement_slot(v, value, s):
    if value < s.label[v]:
        s.label[v] = value
        return True
    s.seen[v] = True
    return False


def computed_return_slot(v, value, s):
    s.total[v] += value
    return value > 2


def unfolded_guard_slot(v, value, s):
    if s.owner[v] >= 0:
        return False
    s.seen[v] = True
    return True


def floordiv_slot(v, value, s):
    s.total[v] //= value
    return False


def foreign_write_slot(v, value, s):
    if s.seen[v]:
        return False
    s.seen[v] = True
    s.owner[value] = v
    return True


def stale_read_slot(v, value, s):
    if s.seen[v]:
        return False
    s.seen[v] = True
    s.label[v] = value
    s.owner[v] = s.label[v]
    return True


def make_collect_slot():
    segments = {}

    def collect_slot(v, value, s):
        segments.setdefault(v, []).append(float(value))
        return False

    return collect_slot


def offer_signal(v, nbrs, s, emit):
    for u in nbrs:
        if s.source[u]:
            emit(u + 1)
            break


def spill_signal(v, nbrs, s, emit):
    for u in nbrs:
        if s.source[u]:
            emit(s.spill[u])
            break


NEAR_MISSES = {
    "trailing statement": (extra_statement_slot, "expected"),
    "non-constant return": (computed_return_slot, "constant return"),
    "unfolded guard": (unfolded_guard_slot, "constant-folds"),
    "floordiv fold": (floordiv_slot, "ordered-sum fold"),
    "write off v": (foreign_write_slot, "must target"),
    "read after write": (stale_read_slot, "after writing"),
    "closure": (make_collect_slot(), "closes over segments"),
    "_select_slot": (sampling_mod._select_slot, "constant-folds"),
    "_async_visit_slot": (bfs_mod._async_visit_slot, "not indexed by"),
}


@pytest.fixture(scope="module")
def graph():
    return to_undirected(rmat(scale=7, edge_factor=8, seed=21))


def one_pull(graph, slot, off=None, verify="off", tamper=None,
             signal=offer_signal):
    """One Gemini pull of ``signal`` into ``slot``; everything the
    phase can be observed by.  ``off`` (the ``interpreted`` fixture)
    puts it on the scalar oracles."""
    engine = GeminiEngine(OutgoingEdgeCut().partition(graph, 4), verify=verify)
    if off is not None:
        off(engine)
    if tamper is not None:
        engine.fastpaths.cache[id(slot), "slot"] = Entry(slot, tamper)
    n = graph.num_vertices
    state = engine.new_state()
    state.set("source", np.arange(n) % 3 == 0)
    state.set("label", np.full(n, n // 2, dtype=np.int64))
    state.set("total", np.full(n, 1000, dtype=np.int64))
    state.set("owner", np.where(np.arange(n) % 5 == 0, 7, -1))
    state.add_array("seen", bool, False)
    # NaNs of either sign, by the parity of the vertex that emits them
    state.set("spill", np.where(np.arange(n) % 2 == 0, np.nan, -np.nan))
    state.add_array("incoming", np.float64, 0.0)
    with np.errstate(all="ignore"):
        result = engine.pull(signal, slot, state, np.ones(n, dtype=bool))
    return (
        arrays_of(state),
        result.changed.tolist(),
        result.updates_applied,
        engine.counters.summary(),
        engine.execution_time(),
    ), engine


class TestRejections:
    @pytest.mark.parametrize("case", sorted(NEAR_MISSES))
    def test_classifies_to_none_with_a_reason(self, case):
        slot, reason = NEAR_MISSES[case]
        assert classify_slot(slot) is None
        with pytest.raises(SlotMismatch, match=reason):
            match_slot(slot)

    def test_sampling_collect_slot_is_a_closure_like_the_table_row(self):
        # the real one is nested in _gemini_two_phase; same body
        import inspect

        assert "def collect_slot" in inspect.getsource(
            sampling_mod._gemini_two_phase
        )

    def test_unanalyzable_callables(self):
        assert classify_slot(lambda v, value, s: False) is None
        assert classify_slot(len) is None

        def keyword_slot(v, value, s, scale=2):
            s.total[v] += value
            return False

        assert classify_slot(keyword_slot) is None

    @pytest.mark.parametrize(
        "case", sorted(set(NEAR_MISSES) - {"_select_slot", "_async_visit_slot"})
    )
    def test_run_matches_oracle_twin(self, interpreted, graph, case):
        slot, _ = NEAR_MISSES[case]
        fast, engine = one_pull(graph, slot)
        oracle, _ = one_pull(graph, slot, interpreted)
        assert engine.fastpaths.entry(SLOT, slot).spec is None
        assert fast == oracle
        assert fast[2] > 0  # the phase did apply updates

    @pytest.mark.parametrize(
        "run",
        [
            lambda eng: sampling_mod.sample_neighbors(eng, seed=5),
            lambda eng: run_program(AsyncBFSProgram(0), eng),
        ],
        ids=["_select_slot", "_async_visit_slot"],
    )
    @pytest.mark.parametrize("engine_cls", [GeminiEngine, SympleGraphEngine])
    def test_corpus_run_matches_oracle_twin(self, interpreted, graph,
                                            engine_cls, run):
        part = OutgoingEdgeCut().partition(graph, 4)
        outcomes = []
        for eng in (engine_cls(part), interpreted(engine_cls(part))):
            res = run(eng)
            outcomes.append((
                {k: v.tobytes() for k, v in vars(res).items()
                 if isinstance(v, np.ndarray)},
                eng.counters.summary(),
                eng.execution_time(),
            ))
        assert outcomes[0] == outcomes[1]

    def test_classified_twin_matches_too(self, interpreted, graph):
        # the same harness, through a scatter: the table above is not
        # passing because nothing in it ever leaves the scalar loop
        fast, engine = one_pull(graph, cc_mod._min_slot)
        oracle, twin_engine = one_pull(graph, cc_mod._min_slot, interpreted)
        assert engine.fastpaths.entry(SLOT, cc_mod._min_slot).spec.shape == MIN_FOLD
        assert not twin_engine.fastpaths.cache  # the oracle classifies nothing
        assert fast == oracle and fast[1]


class TestNaNAccumulate:
    """``accumulate`` meets NaNs of both signs in one vertex's sum: the
    gate hands the phase to the scalar loop, so the bytes are the
    oracle's with or without certification."""

    @pytest.mark.parametrize("verify", ["off", "strict"])
    def test_run_matches_oracle_twin(self, interpreted, graph, verify):
        slot = pr_mod._accumulate_slot
        fast, engine = one_pull(
            graph, slot, verify=verify, signal=spill_signal
        )
        oracle, _ = one_pull(graph, slot, interpreted, signal=spill_signal)
        # still classified: the gate is per phase, on the values
        assert engine.fastpaths.entry(SLOT, slot).spec.shape == ACCUMULATE
        assert fast == oracle
        incoming = np.frombuffer(fast[0]["incoming"][1])
        signs = np.signbit(incoming[np.isnan(incoming)])
        assert signs.any() and not signs.all()


# -- (c) translation validation ------------------------------------------------


class TestSlotCertification:
    def tampered(self):
        """``_min_slot``'s spec claiming the opposite fold."""
        return dataclasses.replace(
            classify_slot(cc_mod._min_slot), shape=MAX_FOLD
        )

    def test_pristine_slot_certifies_once(self, interpreted, graph):
        slot = cc_mod._min_slot
        outcome, engine = one_pull(graph, slot, verify="strict")
        assert engine.fastpaths.entry(SLOT, slot).verdict is True
        assert outcome == one_pull(graph, slot, interpreted)[0]

    def test_strict_refuses_a_tampered_spec(self, graph):
        with pytest.raises(KernelSoundnessError) as exc_info:
            one_pull(
                graph, cc_mod._min_slot, verify="strict",
                tamper=self.tampered(),
            )
        assert exc_info.value.obligation == "slot-equivalence"
        assert "_min_slot" in str(exc_info.value)

    def test_warn_drops_it_and_answers_like_the_oracle(self, interpreted,
                                                       graph):
        slot = cc_mod._min_slot
        with pytest.warns(RuntimeWarning, match="slot fast path disabled") as w:
            outcome, engine = one_pull(
                graph, slot, verify="warn", tamper=self.tampered()
            )
            # the verdict is cached: a second phase neither warns again
            # nor takes the scatter
            n = graph.num_vertices
            state = engine.new_state()
            state.set("source", np.ones(n, dtype=bool))
            state.set("label", np.full(n, n, dtype=np.int64))
            engine.pull(offer_signal, slot, state, np.ones(n, dtype=bool))
        assert len(w) == 1
        assert engine.fastpaths.entry(SLOT, slot).verdict is False
        assert outcome == one_pull(graph, slot, interpreted)[0]
        assert (state.label < n).any()

    def test_off_never_replays(self, graph):
        _, engine = one_pull(graph, cc_mod._min_slot)
        assert engine.fastpaths.entry(SLOT, cc_mod._min_slot).verdict is None


# -- the verify report -------------------------------------------------------------


class TestVerifyReport:
    def test_every_corpus_slot_gets_a_shape_note(self):
        from repro.analysis.verify import verify_targets

        report = verify_targets(["src/repro/algorithms"], strict=True)
        assert report.exit_code == 0  # notes only: the strict CI job holds
        notes = {
            m.func.rpartition(".")[2]: m
            for m in report.messages if m.code.startswith("slot-")
        }
        assert set(notes) == {name.split(".")[1] for name in CORPUS}
        visit = notes["_visit_slot"]
        assert visit.code == "slot-classified" and visit.level == "note"
        assert "first_wins over visited, parent, depth" in visit.message
        assert visit.path.endswith("bfs.py") and visit.lineno > 0
        select = notes["_select_slot"]
        assert select.code == "slot-unclassified"
        assert "constant-folds the guard" in select.message

    def test_sarif_carries_the_notes(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "verify.sarif"
        assert main([
            "verify", "src/repro/algorithms/kcore.py", "--strict",
            "--format", "sarif", "--output", str(out),
        ]) == 0
        results = json.loads(out.read_text())["runs"][0]["results"]
        (note,) = [r for r in results if r["ruleId"] == "slot-classified"]
        assert "accumulate over count" in note["message"]["text"]

    def test_private_slots_are_discovered(self):
        # the bundled slots are all `_*slot`; a three-parameter
        # `*signal` is a push signal (tests/test_push_kernel.py)
        from repro.analysis.verify import discover_udfs

        assert [(name, kind) for name, _, kind in discover_udfs(bfs_mod)] == [
            ("_async_visit_slot", "slot"),
            ("_push_signal", "push"),
            ("_visit_slot", "slot"),
            ("bottom_up_signal", "signal"),
        ]

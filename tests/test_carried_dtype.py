"""A carried value keeps its program dtype, so a walk has one value run.

``repro.engine.dep.carried_dtypes`` types every ``DepStore`` of a run:
the kernel spec's fold dtype (``repro.kernels.csr.fold_dtype``) when
the spec runs against the state, else float64.  Checked here:

* over drawn graphs, 2-5 machines and the three carried kernel shapes
  (``count_to_k_break``, ``full_scan_sum``, ``full_scan_min``) run
  circulant with carried data: every store the walk makes is in the
  fold dtype; the kernel and the interpreter walk to the same emitted
  and carried arrays, dtype and bytes; the final state is the
  single-thread oracle's;
* a walked K-core phase with carried data comes back as one int64 value
  array and one update bin, with the oracle's counts;
* step at a time (under a fault controller), the parent hands each
  step's ``dep_in`` in the fold dtype, through the process executor's
  delta arena too, and the state is the oracle's;
* a UDF whose carried init is a call keeps float64, and its walk's
  values — int64 from fresh units, float64 from restored ones — reach
  the slot as one list of NumPy scalars, through the scalar slot loop,
  with the oracle's final state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.kcore import _count_slot, kcore_signal
from repro.analysis.instrument import instrument_signal
from repro.analysis.kernelspec import (
    COUNT_TO_K_BREAK,
    FULL_SCAN_MIN,
    FULL_SCAN_SUM,
)
from repro.engine import SympleGraphEngine
from repro.engine.dep import DepStore, carried_dtypes
from repro.engine.single_thread import SingleThreadEngine
from repro.exec import work
from repro.exec.process import ProcessPoolExecutor
from repro.fault import FaultController, FaultPlan
from repro.graph import CSRGraph, rmat, to_undirected
from repro.kernels.csr import fold_dtype
from repro.partition import OutgoingEdgeCut


def count_signal(v, nbrs, s, emit):
    cnt = s.base[v]
    start = cnt
    for u in nbrs:
        if s.flag[u]:
            cnt += 1
            if cnt >= s.k:
                break
    if cnt > start:
        emit(cnt - start)


def sum_signal(v, nbrs, s, emit):
    total = s.base[v]
    start = total
    for u in nbrs:
        total += s.w[u]
    if total > start:
        emit(total - start)


def min_signal(v, nbrs, s, emit):
    best = s.key[v]
    for u in nbrs:
        if s.key[u] + 1 < best:
            best = s.key[u] + 1
    if best < s.key[v]:
        emit(best)


def add_slot(v, value, s):
    s.acc[v] += value
    return False


def min_slot(v, value, s):
    # into `out`, not the field the fold starts from: the pair circulates
    if value < s.out[v]:
        s.out[v] = value
        return True
    return False


def called_init_signal(v, nbrs, s, emit):
    """A count no kernel shape matches, whose init is a call: its
    carried type cannot be known."""
    cnt = int(s.base[v])
    start = cnt
    for u in nbrs:
        if s.flag[u]:
            cnt += 1
    if cnt > start:
        emit(cnt - start)


SHAPES = {
    COUNT_TO_K_BREAK: (count_signal, add_slot),
    FULL_SCAN_SUM: (sum_signal, add_slot),
    FULL_SCAN_MIN: (min_signal, min_slot),
}


def make_state(engine, rng, dtype):
    """Whole numbers only, so every fold is exact in any scan order."""
    n = engine.graph.num_vertices
    state = engine.new_state()
    state.set("base", rng.integers(0, 3, n).astype(dtype))
    state.set("w", rng.integers(0, 5, n).astype(dtype))
    state.set("key", rng.integers(0, 20, n).astype(dtype))
    state.set("flag", rng.random(n) < 0.6)
    state.add_scalar("k", int(rng.integers(1, 5)))
    state.add_array("acc", np.float64, 0.0)
    state.add_array("out", np.float64, np.inf)
    return state


def symple(graph, p, executor=None):
    return SympleGraphEngine(
        OutgoingEdgeCut().partition(graph, p), executor=executor
    )


def pull(engine, signal, slot, state):
    everyone = np.ones(engine.graph.num_vertices, dtype=bool)
    return engine.pull(signal, slot, state, everyone,
                       allow_differentiated=False, share_dep_data=True)


def walk(engine, state, analyzed, use_kernel):
    """The whole circulant phase walked at once, with the dependency
    state handed in and returned step by step."""
    n, p = engine.graph.num_vertices, engine.num_machines
    carried = carried_dtypes(analyzed, state)
    table = engine._pull_table(
        np.ones(n, dtype=bool), np.zeros(n, dtype=bool), circulant=True
    )
    ctx = engine.executor._ctx
    ctx.state = state
    dep_in = (
        np.zeros(n, dtype=bool),
        {name: np.zeros(n, dtype=bool) for name in carried},
        {name: np.zeros(n, dtype=dtype) for name, dtype in carried.items()},
    )
    shared = dict(table=table, steps=(0, p), carried=carried, dep_in=dep_in,
                  signal=analyzed, use_kernel=use_kernel, timed=False,
                  solo=False)
    result, = work.pull_walk(ctx, shared, list(range(p)))
    if result["broke"] is None:  # a fold that never breaks
        result["broke"] = np.zeros(result["dep_v"].size, dtype=bool)
    return result


def same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype
                and a.tobytes() == b.tobytes())
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def recorded_stores(patch):
    """Every DepStore the walks make from here on."""
    made = []

    class Recording(DepStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    patch.setattr(work, "DepStore", Recording)
    return made


@st.composite
def cases(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 40))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    graph = CSRGraph(n, np.array(draw(ends), dtype=np.int64),
                     np.array(draw(ends), dtype=np.int64))
    return (
        graph, draw(st.integers(2, 5)), draw(st.sampled_from(sorted(SHAPES))),
        draw(st.sampled_from([np.int64, np.float64])),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestCarriedDtype:
    @given(case=cases())
    @settings(max_examples=60, deadline=None)
    def test_folds_keep_their_dtype(self, case):
        graph, p, kind, dtype, seed = case
        signal, slot = SHAPES[kind]
        analyzed = instrument_signal(signal)
        assert analyzed.kernel.kind == kind
        engine = symple(graph, p)
        state = make_state(engine, np.random.default_rng(seed), dtype)
        fold = fold_dtype(analyzed.kernel, state)
        (name,) = analyzed.info.carried_vars
        assert carried_dtypes(analyzed, state) == {name: fold}
        with pytest.MonkeyPatch.context() as patch:
            made = recorded_stores(patch)
            kernel = walk(engine, state, analyzed, use_kernel=True)
            interpreted = walk(engine, state, analyzed, use_kernel=False)
        assert made and all(
            {key: data.dtype for key, data in store.data.items()}
            == {name: fold} for store in made
        )
        assert kernel["emit_values"].dtype == fold or not kernel["emit_v"].size
        for key in ("emit_v", "emit_n", "emit_counts", "emit_values",
                    "dep_v", "broke", "carried", "item_edges",
                    *(c for c in work._UNIT_COLUMNS if "seconds" not in c)):
            assert same(kernel[key], interpreted[key]), key
        oracle = SingleThreadEngine(graph)
        want = make_state(oracle, np.random.default_rng(seed), dtype)
        pull(oracle, signal, slot, want)
        pull(engine, signal, slot, state)
        for field in ("acc", "out"):
            assert same(getattr(state, field), getattr(want, field)), field


@pytest.fixture(scope="module")
def graph():
    return to_undirected(rmat(scale=6, edge_factor=6, seed=3))


def recorded_walks(patch):
    walks = []
    pull_walk = work.pull_walk

    def recording(ctx, shared, items):
        walks.extend(pull_walk(ctx, shared, items))
        return walks[-1:]

    recording.chunk = recording
    patch.setattr(work, "pull_walk", recording)
    return walks


def kcore_state(engine):
    state = engine.new_state()
    n = engine.graph.num_vertices
    state.set("active", np.ones(n, dtype=bool))
    state.add_scalar("k", 3)
    state.add_array("count", np.int64, 0)
    return state


class TestOneValueRun:
    def test_a_carried_kcore_phase_is_one_int64_array(
        self, monkeypatch, graph
    ):
        engine = symple(graph, 4)
        state = kcore_state(engine)
        walks = recorded_walks(monkeypatch)
        pull(engine, kcore_signal, _count_slot, state)
        (walked,) = walks
        assert walked["kind"] == "count_to_k_break"
        assert "emit_class" not in walked
        values = walked["emit_values"]
        assert isinstance(values, np.ndarray) and values.dtype == np.int64
        assert values.size == walked["emit_v"].size > 0
        (bin_,) = work.update_bins(walked)
        assert bin_[1] is values
        oracle = SingleThreadEngine(graph)
        want = kcore_state(oracle)
        pull(oracle, kcore_signal, _count_slot, want)
        assert same(state.count, want.count)

    def test_restored_and_fresh_interpreted_counts_pack_alike(self, graph):
        """K-core's ``cnt = 0`` is a Python int on a fresh vertex and a
        restored ``np.int64`` on a carried one: the interpreter packs
        both into the int64 array the kernel returns."""
        engine = symple(graph, 4)
        state = kcore_state(engine)
        analyzed = instrument_signal(kcore_signal)
        kernel = walk(engine, state, analyzed, use_kernel=True)
        interpreted = walk(engine, state, analyzed, use_kernel=False)
        assert kernel["dep_v"].size and kernel["emit_v"].size
        for key in ("emit_v", "emit_values", "carried"):
            assert same(kernel[key], interpreted[key]), key

    def test_an_untyped_carry_keeps_float64(self, monkeypatch, graph):
        engine = symple(graph, 4)
        state = make_state(engine, np.random.default_rng(5), np.int64)
        analyzed = instrument_signal(called_init_signal)
        assert analyzed.kernel is None
        assert carried_dtypes(analyzed, state) == {"cnt": np.float64}
        walks = recorded_walks(monkeypatch)
        pull(engine, called_init_signal, add_slot, state)
        (walked,) = walks
        values = walked["emit_values"]
        # fresh units emit ints, restored ones float64: one list, its
        # elements NumPy scalars as an array's would be
        assert isinstance(values, list) and len(values) > 0
        assert {np.int64, np.float64} <= {type(value) for value in values}
        (bin_,) = work.update_bins(walked)
        assert bin_[1] is values
        oracle = SingleThreadEngine(graph)
        want = make_state(oracle, np.random.default_rng(5), np.int64)
        pull(oracle, called_init_signal, add_slot, want)
        assert same(state.acc, want.acc)


class TestStepwise:
    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_typed_dep_in_round_trips(self, graph, workers, dtype):
        for kind, (signal, slot) in SHAPES.items():
            engine = symple(graph, 4, workers and ProcessPoolExecutor(workers))
            engine.attach_faults(FaultController(FaultPlan(seed=0), 4))
            handed = []
            map_pull = engine._map_pull

            def recording(*args, **kwargs):
                handed.append(kwargs["dep_in"])
                return map_pull(*args, **kwargs)

            engine._map_pull = recording
            state = make_state(engine, np.random.default_rng(9), dtype)
            fold = fold_dtype(instrument_signal(signal).kernel, state)
            try:
                pull(engine, signal, slot, state)
            finally:
                engine.executor.close()
            assert len(handed) == 4, kind  # one map a step
            for _, _, data in handed:
                assert [d.dtype for d in data.values()] == [fold], kind
            oracle = SingleThreadEngine(graph)
            want = make_state(oracle, np.random.default_rng(9), dtype)
            pull(oracle, signal, slot, want)
            for field in ("acc", "out"):
                assert same(getattr(state, field), getattr(want, field)), (
                    kind, field
                )

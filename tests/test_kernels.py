"""Kernel layer: classification, registry, and batched CSR kernels.

Covers the three pieces introduced by the vectorized fast path:

* ``repro.analysis.kernelspec`` — which UDF shapes classify to which
  kernel kinds, and that anything outside the grammar (impure UDFs,
  unknown shapes, ``fold_while`` closures) conservatively yields no
  spec;
* ``repro.kernels.registry`` — lookup, extension, and override;
* ``repro.kernels.csr`` — batch results match a straight-line Python
  interpretation of the same UDF, including restored loop-carried
  state.

End-to-end engine equivalence (kernels against the interpreter the
``interpreted`` fixture runs, with faults) lives in
``test_engine_equivalence.py``.
"""

import dataclasses
import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import SIGNAL_UDFS
from repro.analysis import fold_while
from repro.analysis.instrument import instrument_signal
from repro.analysis.kernelspec import (
    COUNT_TO_K_BREAK,
    FIRST_MATCH_BREAK,
    FULL_SCAN_MIN,
    FULL_SCAN_SUM,
)
from repro.engine import GeminiEngine, SympleGraphEngine
from repro.engine.fastpath import KERNEL
from repro.engine.state import StateStore
from repro.exec.work import vertex_tables
from repro.graph import erdos_renyi, to_undirected
from repro.kernels import available_kernels, get_kernel, register_kernel
from repro.kernels import csr
from repro.kernels import registry as kernel_registry
from repro.kernels.csr import fold_dtype
from repro.partition import OutgoingEdgeCut
from repro.partition.base import LocalAdjacency

bfs_mod = importlib.import_module("repro.algorithms.bfs")
cc_mod = importlib.import_module("repro.algorithms.cc")
inc_mod = importlib.import_module("repro.algorithms.incremental")
kcore_mod = importlib.import_module("repro.algorithms.kcore")
mis_mod = importlib.import_module("repro.algorithms.mis")
pr_mod = importlib.import_module("repro.algorithms.pagerank")


# -- classification --------------------------------------------------------

#: every registered signal UDF -> its kernel shape.  The two ``None``
#: rows are outside the grammar on purpose (a prefix sum that breaks on
#: its running value; a fold whose term looks a weight up by method
#: call); any other signal landing there runs the per-vertex
#: interpreter, which CI's ``verify-corpus`` job fails on by the same
#: two names.
CORPUS = {
    "bottom_up_signal": FIRST_MATCH_BREAK,
    "cc_signal": FULL_SCAN_MIN,
    "kcore_signal": COUNT_TO_K_BREAK,
    "kmeans_signal": FIRST_MATCH_BREAK,
    "mis_signal": FIRST_MATCH_BREAK,
    "pagerank_signal": FULL_SCAN_SUM,
    "relax_depth_signal": FULL_SCAN_MIN,
    "sampling_signal": None,
    "scc_reach_signal": FIRST_MATCH_BREAK,
    "sssp_signal": None,
}


class TestClassification:
    def test_corpus_table_pinned_by_name(self):
        table = {
            fn.__name__: getattr(instrument_signal(fn).kernel, "kind", None)
            for fns in SIGNAL_UDFS.values()
            for fn in fns
        }
        assert table == CORPUS

    @pytest.mark.parametrize(
        "signal,kind",
        [
            (bfs_mod.bottom_up_signal, FIRST_MATCH_BREAK),
            (mis_mod.mis_signal, FIRST_MATCH_BREAK),
            (kcore_mod.kcore_signal, COUNT_TO_K_BREAK),
            (pr_mod.pagerank_signal, FULL_SCAN_SUM),
            (cc_mod.cc_signal, FULL_SCAN_MIN),
        ],
    )
    def test_builtin_signals_classify(self, signal, kind):
        spec = instrument_signal(signal).kernel
        assert spec is not None
        assert spec.kind == kind
        # every role was compiled and its source kept for inspection
        assert spec.sources and all(spec.sources.values())
        assert set(spec.exprs) == set(spec.sources)

    def test_classification_reads_expected_state(self):
        spec = instrument_signal(bfs_mod.bottom_up_signal).kernel
        assert spec.arrays == ("frontier",)
        assert spec.carried_vars == ()
        spec = instrument_signal(kcore_mod.kcore_signal).kernel
        assert spec.carried_vars == ("cnt",)

    def test_impure_udf_not_classified(self):
        def writes_state(v, nbrs, s, emit):
            for u in nbrs:
                s.mark[u] = 1
                if s.flag[u]:
                    emit(u)
                    break

        assert instrument_signal(writes_state).kernel is None

    def test_unknown_shape_not_classified(self):
        def two_emits(v, nbrs, s, emit):
            for u in nbrs:
                if s.flag[u]:
                    emit(u)
                    emit(v)
                    break

        assert instrument_signal(two_emits).kernel is None

    def test_free_variable_not_classified(self):
        helper = {"threshold": 3}

        def closes_over(v, nbrs, s, emit):
            for u in nbrs:
                if s.val[u] > helper["threshold"]:
                    emit(u)
                    break

        assert instrument_signal(closes_over).kernel is None

    def test_fold_while_dsl_has_no_kernel(self):
        signal = fold_while(
            initial=0,
            compose=lambda acc, u, v, s: acc + 1,
            exit_when=lambda acc, u, v, s: acc >= 2,
        )
        assert signal.kernel is None

    def test_compatible_rejects_missing_or_reshaped_fields(self):
        spec = instrument_signal(bfs_mod.bottom_up_signal).kernel
        state = StateStore(5)
        assert not spec.compatible(state)  # frontier missing
        state.add_array("frontier", bool, False)
        assert spec.compatible(state)
        state.set("frontier", np.zeros((5, 2)))  # wrong rank
        assert not spec.compatible(state)
        state.set("frontier", [False] * 5)  # not an ndarray
        assert not spec.compatible(state)

    def test_compatible_rejects_array_valued_scalar(self):
        spec = instrument_signal(kcore_mod.kcore_signal).kernel
        state = StateStore(4)
        for name in spec.arrays:
            state.add_array(name, np.int64, 0)
        for name in spec.scalars:
            state.add_scalar(name, 3)
        assert spec.compatible(state)
        state.set(spec.scalars[0], np.arange(4))
        assert not spec.compatible(state)


# -- registry --------------------------------------------------------------


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = available_kernels()
        for kind in (
            FIRST_MATCH_BREAK, COUNT_TO_K_BREAK, FULL_SCAN_SUM, FULL_SCAN_MIN,
        ):
            assert kind in kinds
            assert callable(get_kernel(kind))

    def test_unknown_kind_is_none(self):
        assert get_kernel("no_such_kernel") is None

    def test_register_and_override(self):
        saved = dict(kernel_registry._REGISTRY)
        try:
            @register_kernel("test_custom_kind")
            def custom(spec, state, local, vertices, carried_in=None):
                return "custom"

            assert get_kernel("test_custom_kind") is custom
            assert "test_custom_kind" in available_kernels()

            # later registrations override earlier ones
            @register_kernel("test_custom_kind")
            def replacement(spec, state, local, vertices, carried_in=None):
                return "replacement"

            assert get_kernel("test_custom_kind") is replacement
        finally:
            kernel_registry._REGISTRY.clear()
            kernel_registry._REGISTRY.update(saved)


# -- batched CSR kernels vs a straight-line interpretation ------------------


def toy_adjacency(n, edges):
    """A LocalAdjacency over ``n`` global vertices from (dst, srcs) pairs."""
    counts = np.zeros(n, dtype=np.int64)
    indices = []
    for dst in range(n):
        srcs = edges.get(dst, [])
        counts[dst] = len(srcs)
        indices.extend(srcs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return LocalAdjacency(indptr, np.array(indices, dtype=np.int64), None)


def _head_signal(v, nbrs, s, emit):
    """A first match on a bare read: its predicate is a table."""
    for u in nbrs:
        if s.flag[u]:
            emit(u)
            break


def _dest_head_signal(v, nbrs, s, emit):
    """A first match whose predicate reads the destination: per edge."""
    for u in nbrs:
        if s.key[u] < s.key[v]:
            emit(s.key[u] * 2)
            break


def _limit_count_signal(v, nbrs, s, emit):
    """K-core's count up to a per-vertex threshold, from ``seen``."""
    cnt = s.seen[v]
    start = cnt
    for u in nbrs:
        if s.flag[u]:
            cnt += 1
            if cnt >= s.limit[v]:
                break
    if cnt > start:
        emit(cnt - start)


def _dest_count_signal(v, nbrs, s, emit):
    """The count over a predicate that reads the destination."""
    cnt = s.seen[v]
    start = cnt
    for u in nbrs:
        if s.key[u] > s.key[v]:
            cnt += 1
            if cnt >= s.limit[v]:
                break
    if cnt > start:
        emit(cnt - start)


BREAK_SIGNALS = (
    _head_signal, _dest_head_signal, _limit_count_signal, _dest_count_signal,
)
#: thresholds at or below any start, huge, negative, infinite and NaN
_LIMITS = st.sampled_from(
    [-np.inf, np.inf, np.nan, -7.0, 0.0, 2.5, 1e300, float(2**40)]
) | st.integers(-3, 14).map(float)


@st.composite
def break_blocks(draw):
    """A break kernel's call over a drawn multi-run block.

    1-4 adjacencies over ``n`` vertices with rows of one edge and long
    ones, a run of rows drawn from each (a vertex may sit in several),
    a state whose heads all hit, none hit or are drawn, a count init of
    a drawn dtype with drawn thresholds, restored counts or none, the
    predicate tables or none, and the head probe on or at its rule.
    """
    signal = draw(st.sampled_from(BREAK_SIGNALS))
    spec = instrument_signal(signal).kernel
    n = draw(st.integers(1, 8))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        edges = {}
        for v in range(n):
            degree = draw(st.sampled_from([0, 1, 1, 2]) | st.integers(3, 12))
            edges[v] = draw(st.lists(
                st.integers(0, n - 1), min_size=degree, max_size=degree
            ))
        nonzero = [v for v in range(n) if edges[v]]
        rows = draw(st.lists(st.sampled_from(nonzero), unique=True)
                    if nonzero else st.just([]))
        if rows:
            runs.append((toy_adjacency(n, edges),
                         np.array(sorted(rows), dtype=np.int64)))
    assume(runs)
    state = StateStore(n)
    state.add_array("flag", bool, False)
    heads = draw(st.sampled_from(["all", "none", "drawn"]))
    state.flag[:] = draw(
        st.lists(st.booleans(), min_size=n, max_size=n)
    ) if heads == "drawn" else heads == "all"
    state.add_array("key", np.int64, 0)
    state.key[:] = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    state.add_array("seen", draw(st.sampled_from(
        [np.int64, np.float32, np.float64]
    )), 0)
    state.seen[:] = draw(st.lists(st.integers(-3, 9), min_size=n, max_size=n))
    state.add_array("limit", np.float64, 0.0)
    state.limit[:] = draw(st.lists(_LIMITS, min_size=n, max_size=n))
    vertices = np.concatenate([rows for _, rows in runs])
    carried = None
    if spec.kind == COUNT_TO_K_BREAK and draw(st.booleans()):
        size = vertices.size
        carried = (
            np.array(draw(st.lists(st.booleans(), min_size=size,
                                   max_size=size))),
            np.array(draw(st.lists(st.integers(-3, 12), min_size=size,
                                   max_size=size)),
                     dtype=fold_dtype(spec, state)),
        )
    tables = vertex_tables(spec, state) if draw(st.booleans()) else None
    probe = draw(st.sampled_from([0, csr._PROBE_EDGES]))
    return signal, spec, state, runs, vertices, carried, tables, probe


class TestKernelsMatchInterpreter:
    N = 7
    EDGES = {0: [1, 2, 3], 1: [0, 4], 2: [5, 6, 0, 1], 4: [2], 5: [3, 4, 6]}
    VERTICES = np.array([0, 1, 2, 4, 5], dtype=np.int64)  # nonzero degree

    def run_interpreter(self, signal, state, local, vertices):
        """Reference: run the plain UDF per vertex, counting scans.

        The neighbor iterable tracks how many ids it handed out and
        whether the loop abandoned it mid-iteration (a ``break``).
        """
        edges, emits, values, broke = [], [], [], []
        for v in vertices.tolist():
            out = []
            scanned = 0
            did_break = False

            def nbrs_iter(v=v):
                nonlocal scanned, did_break
                for u in local.neighbors(v):
                    scanned += 1
                    did_break = True  # assume break; cleared on resume
                    yield int(u)
                    did_break = False

            class Nbrs:
                def __iter__(self_inner):
                    return nbrs_iter()

            signal(v, Nbrs(), state, out.append)
            edges.append(scanned)
            emits.append(bool(out))
            values.append(out[0] if out else 0)
            broke.append(did_break)
        return (
            np.array(edges),
            np.array(emits),
            np.array(values),
            np.array(broke),
        )

    def test_first_match_break(self):
        def toy(v, nbrs, s, emit):
            for u in nbrs:
                if s.flag[u]:
                    emit(u)
                    break

        spec = instrument_signal(toy).kernel
        assert spec is not None and spec.kind == FIRST_MATCH_BREAK
        local = toy_adjacency(self.N, self.EDGES)
        state = StateStore(self.N)
        state.add_array("flag", bool, False)
        state.flag[[4, 6]] = True
        batch = get_kernel(spec.kind)(spec, state, local, self.VERTICES)
        edges, emits, values, broke = self.run_interpreter(
            toy, state, local, self.VERTICES
        )
        assert np.array_equal(batch.edges, edges)
        assert np.array_equal(batch.emit_mask, emits)
        assert np.array_equal(batch.values[batch.emit_mask], values[emits])
        assert np.array_equal(batch.broke, broke)

    def test_count_to_k_with_carried_restore(self):
        def toy(v, nbrs, s, emit):
            cnt = s.seen[v]
            start = cnt
            for u in nbrs:
                if s.alive[u]:
                    cnt += 1
                    if cnt >= s.k:
                        break
            if cnt > start:
                emit(cnt - start)

        spec = instrument_signal(toy).kernel
        assert spec is not None and spec.kind == COUNT_TO_K_BREAK
        local = toy_adjacency(self.N, self.EDGES)
        state = StateStore(self.N)
        state.add_array("seen", np.int64, 0)
        state.add_array("alive", bool, True)
        state.alive[[3, 6]] = False
        state.add_scalar("k", 2)

        # restored counts for two of the batch vertices, as the
        # circulant hand-off would supply them (float64 wire dtype)
        present = np.array([False, True, False, True, False])
        restored = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        kernel = get_kernel(spec.kind)
        batch = kernel(
            spec, state, local, self.VERTICES, carried_in=(present, restored)
        )

        # reference: seed the counter with the restored value
        edges, emits, values, carried = [], [], [], []
        for i, v in enumerate(self.VERTICES.tolist()):
            cnt = restored[i] if present[i] else state.seen[v]
            start = cnt
            scanned = 0
            broke = False
            for u in local.neighbors(v):
                scanned += 1
                if state.alive[u]:
                    cnt += 1
                    if cnt >= state.k:
                        broke = True
                        break
            edges.append(scanned)
            emits.append(cnt > start)
            values.append(cnt - start)
            carried.append(float(cnt))
        assert np.array_equal(batch.edges, np.array(edges))
        assert np.array_equal(batch.emit_mask, np.array(emits))
        assert np.array_equal(
            batch.values[batch.emit_mask],
            np.array(values)[np.array(emits)],
        )
        assert np.array_equal(batch.carried, np.array(carried))

    def test_full_scan_sum_matches_sequential_addition(self):
        def toy(v, nbrs, s, emit):
            total = s.base[v]
            start = total
            for u in nbrs:
                total += s.contrib[u]
            if total > start:
                emit(total - start)

        spec = instrument_signal(toy).kernel
        assert spec is not None and spec.kind == FULL_SCAN_SUM
        local = toy_adjacency(self.N, self.EDGES)
        state = StateStore(self.N)
        rng = np.random.default_rng(5)
        state.add_array("base", np.float64, 0.0)
        state.base[:] = rng.random(self.N)
        state.add_array("contrib", np.float64, 0.0)
        state.contrib[:] = rng.random(self.N) * 1e-3
        batch = get_kernel(spec.kind)(spec, state, local, self.VERTICES)
        for i, v in enumerate(self.VERTICES.tolist()):
            total = state.base[v]
            for u in local.neighbors(v):
                total += state.contrib[u]  # left-to-right, like the UDF
            # bit-identical, not just close
            assert batch.carried[i] == total
            assert batch.values[i] == total - state.base[v]
        assert np.array_equal(batch.edges, local.degrees()[self.VERTICES])

    def test_full_scan_min(self):
        def toy(v, nbrs, s, emit):
            best = s.label[v]
            for u in nbrs:
                if s.label[u] < best:
                    best = s.label[u]
            if best < s.label[v]:
                emit(best)

        spec = instrument_signal(toy).kernel
        assert spec is not None and spec.kind == FULL_SCAN_MIN
        local = toy_adjacency(self.N, self.EDGES)
        state = StateStore(self.N)
        state.add_array("label", np.int64, 0)
        state.label[:] = [3, 1, 4, 1, 5, 9, 2]
        batch = get_kernel(spec.kind)(spec, state, local, self.VERTICES)
        for i, v in enumerate(self.VERTICES.tolist()):
            best = min(
                int(state.label[v]),
                min(int(state.label[u]) for u in local.neighbors(v)),
            )
            assert batch.carried[i] == best
            assert batch.emit_mask[i] == (best < state.label[v])

    def test_full_scan_min_keeps_the_unreached_sentinel(self):
        # incremental BFS folds `depth[u] + 1` over an int64 sentinel of
        # 2**62; carried state arrives in the fold's int64, where
        # 2**62 + 1 never beats the start 2**62, so no emit, and real
        # depths stay exact
        signal, inf = inc_mod.relax_depth_signal, int(inc_mod._INF)
        spec = instrument_signal(signal).kernel
        assert spec.kind == FULL_SCAN_MIN
        assert spec.sources["term"] == "__state.depth[__u] + 1"
        local = toy_adjacency(self.N, self.EDGES)
        state = StateStore(self.N)
        state.add_array("depth", np.int64, inf)
        state.depth[3] = 0  # reaches 0 and 5; 1, 2 and 4 see only `inf`
        want_values, want_emit = [1, inf, inf, inf, 1], [1, 0, 0, 0, 1]
        plain = get_kernel(spec.kind)(spec, state, local, self.VERTICES)
        carried = get_kernel(spec.kind)(
            spec, state, local, self.VERTICES,
            carried_in=(
                np.ones(self.VERTICES.size, dtype=bool),
                state.depth[self.VERTICES].copy(),
            ),
        )
        assert fold_dtype(spec, state) == np.int64
        for batch in (plain, carried):
            assert batch.values.dtype == batch.carried.dtype == np.int64
            assert batch.emit_mask.tolist() == want_emit
            assert batch.values.tolist() == want_values
        edges, emits, values, _ = self.run_interpreter(
            signal, state, local, self.VERTICES
        )
        assert emits.tolist() == want_emit
        assert values[emits].tolist() == [1, 1]
        assert np.array_equal(plain.edges, edges)

    def test_empty_batch(self):
        spec = instrument_signal(bfs_mod.bottom_up_signal).kernel
        local = toy_adjacency(self.N, self.EDGES)
        state = StateStore(self.N)
        state.add_array("frontier", bool, False)
        batch = get_kernel(spec.kind)(
            spec, state, local, np.zeros(0, dtype=np.int64)
        )
        assert batch.edges.size == 0
        assert batch.emit_mask.size == 0

    @settings(max_examples=300, deadline=None)
    @given(case=break_blocks())
    def test_break_kernels_over_multi_run_blocks(self, case):
        """Both break kernels over a drawn multi-run block, probed at the
        heads or scanned whole, equal the interpreter array by array,
        dtype included; a restored count runs the interpreter from the
        restored value."""
        signal, spec, state, runs, vertices, carried, tables, probe = case
        starts, lens, block_runs, at = [], [], [], 0
        for local, rows in runs:
            starts.append(local.indptr[rows])
            lens.append(local.degrees()[rows])
            block_runs.append((local, at, at + rows.size))
            at += rows.size
        block = csr.ScanBlock(
            np.concatenate(starts), np.concatenate(lens), block_runs
        )
        with mock.patch.object(csr, "_PROBE_EDGES", probe):
            batch = get_kernel(spec.kind)(
                spec, state, block, vertices, carried_in=carried,
                tables=tables,
            )
        # the interpreter, row by row, from the restored count if any
        seen = state.seen.copy()
        want = {"edges": [], "emit": [], "values": [], "broke": [],
                "start": []}
        row = 0
        for local, rows in runs:
            for v in rows.tolist():
                if carried is not None and carried[0][row]:
                    state.seen[v] = carried[1][row]
                edges, emits, values, broke = self.run_interpreter(
                    signal, state, local, np.array([v])
                )
                want["start"].append(state.seen[v])
                state.seen[v] = seen[v]
                for key, got in zip(("edges", "emit", "values", "broke"),
                                    (edges, emits, values, broke)):
                    want[key].append(got[0])
                row += 1
        emit = np.array(want["emit"])
        assert batch.edges.dtype == np.int64
        assert np.array_equal(batch.edges, np.array(want["edges"]))
        assert batch.emit_mask.dtype == batch.broke.dtype == bool
        assert np.array_equal(batch.emit_mask, emit)
        assert np.array_equal(batch.broke, np.array(want["broke"]))
        emitted = [want["values"][i] for i in np.flatnonzero(emit)]
        if spec.kind == FIRST_MATCH_BREAK:
            assert batch.carried is None
            assert _same(batch.values[emit], np.array(emitted, dtype=np.int64))
            return
        fold = fold_dtype(spec, state)
        assert batch.values.dtype == batch.carried.dtype == fold
        assert all(np.asarray(value).dtype == fold for value in emitted)
        assert _same(batch.values[emit], np.array(emitted, dtype=fold))
        # a count that emitted nothing ends where it started
        final = np.array(want["start"], dtype=fold)
        final[emit] += np.array(emitted, dtype=fold)
        assert _same(batch.carried, final)


# -- escape hatch ----------------------------------------------------------


class TestEscapeHatch:
    def test_interpreted_engine_classifies_nothing(self, interpreted):
        graph = to_undirected(erdos_renyi(40, 160, seed=9))
        part = OutgoingEdgeCut().partition(graph, 3)
        on = SympleGraphEngine(part)
        off = interpreted(SympleGraphEngine(part))
        r_on = bfs_mod.bfs(on, 0, mode="bottomup")
        r_off = bfs_mod.bfs(off, 0, mode="bottomup")
        assert np.array_equal(r_on.depth, r_off.depth)
        assert on.counters.summary() == off.counters.summary()
        signal = bfs_mod.bottom_up_signal
        assert on.fastpaths.entry(KERNEL, signal).spec is not None
        assert not off.fastpaths.cache


# -- connectives and chained comparisons -------------------------------------
#
# `and`/`or`/`not` compile to `&`/`|`/`~`, which agree with them on
# booleans only, and NumPy cannot evaluate `a < b < c` elementwise.
# Each signal below answered wrongly (or raised) on the kernel path,
# also under verify="strict", while the interpreter was right.


def int_and_signal(v, nbrs, s, emit):
    for u in nbrs:
        if s.weight[u] and s.flag[u]:  # weight in {0, 2, 4}: 2 & True == 0
            emit(u)
            break


def int_not_signal(v, nbrs, s, emit):
    for u in nbrs:
        if not s.weight[u]:  # ~2 == -3, which is true
            emit(u)
            break


def scalar_and_signal(v, nbrs, s, emit):
    for u in nbrs:
        if s.flag[u] and s.k:  # True & 2 == 0
            emit(u)
            break


def chained_signal(v, nbrs, s, emit):
    for u in nbrs:
        if 0 < s.weight[u] < 3:
            emit(u)
            break


def python_not_signal(v, nbrs, s, emit):
    for u in nbrs:
        if not s.off and s.flag[u]:  # ~False == -1 and ~True == -2: both true
            emit(u)
            break


def first_seen_slot(v, value, s):
    if s.seen[v]:
        return False
    s.seen[v] = True
    return True


class TestConnectivesAndChains:
    def one_pull(self, signal, interpreted, verify, off=False):
        """One pull; on the interpreter when the ``interpreted``
        fixture is given."""
        from repro.graph import rmat

        graph = rmat(scale=7, edge_factor=8, seed=3)
        engine = GeminiEngine(
            OutgoingEdgeCut().partition(graph, 4), verify=verify
        )
        if interpreted is not None:
            interpreted(engine)
        n = graph.num_vertices
        state = engine.new_state()
        state.set("weight", np.arange(n, dtype=np.int64) % 3 * 2)
        state.set("flag", np.arange(n) % 2 == 0)
        state.add_scalar("k", 2)
        state.add_scalar("off", off)
        state.add_array("seen", bool, False)
        result = engine.pull(
            signal, first_seen_slot, state, np.ones(n, dtype=bool)
        )
        return (
            result.edges_traversed,
            result.updates_applied,
            result.changed.tolist(),
            state.seen.tobytes(),
            engine.counters.summary(),
        )

    @pytest.mark.parametrize("verify", ["off", "strict"])
    @pytest.mark.parametrize(
        "signal",
        [int_and_signal, int_not_signal, scalar_and_signal, chained_signal],
        ids=lambda fn: fn.__name__,
    )
    def test_kernel_path_equals_interpreter(self, interpreted, signal,
                                            verify):
        fast = self.one_pull(signal, None, verify)
        assert fast == self.one_pull(signal, interpreted, verify)
        assert 0 < fast[1] < fast[0] < 1024  # it matched, and it broke

    def test_connective_operands_must_be_bool_at_run_time(self):
        spec = instrument_signal(int_and_signal).kernel
        assert spec.kind == FIRST_MATCH_BREAK  # the dtype is a run-time fact
        assert spec.bool_arrays == ("weight", "flag")
        state = StateStore(4)
        state.add_array("weight", np.int64, 2)
        state.add_array("flag", bool, True)
        assert not spec.compatible(state)
        state.add_array("weight", bool, True)
        assert spec.compatible(state)
        spec = instrument_signal(scalar_and_signal).kernel
        assert spec.bool_scalars == ("k",)
        state.add_scalar("k", 2)
        assert not spec.compatible(state)
        state.add_scalar("k", np.True_)
        assert spec.compatible(state)

    def test_number_under_a_connective_is_not_classified(self):
        def arithmetic_and_signal(v, nbrs, s, emit):
            for u in nbrs:
                if s.weight[u] + 1 and s.flag[u]:
                    emit(u)
                    break

        assert instrument_signal(arithmetic_and_signal).kernel is None
        assert instrument_signal(chained_signal).kernel is None

    @pytest.mark.parametrize("off", [False, True, 0, 3])
    def test_a_lone_scalar_takes_pythons_not(self, interpreted, off):
        # `not s.off` stays Python's `not` (no dtype to require), so the
        # kernel runs and agrees whatever the scalar is
        spec = instrument_signal(python_not_signal).kernel
        assert "not __state.off" in spec.sources["predicate"]
        assert spec.bool_scalars == () and spec.bool_arrays == ("flag",)
        assert self.one_pull(python_not_signal, None, "off", off) == (
            self.one_pull(python_not_signal, interpreted, "off", off)
        )

    def test_bundled_classifications_survive(self):
        # mis_signal reads a bool `active` under `and`
        spec = instrument_signal(mis_mod.mis_signal).kernel
        assert spec.kind == FIRST_MATCH_BREAK
        assert spec.bool_arrays == ("active",)

    def test_slots_check_through_the_same_rule(self):
        from repro.analysis.slotspec import classify_slot

        def unseen_slot(v, value, s):
            if not s.fresh[v] or s.seen[v]:
                return False
            s.fresh[v] = False
            s.seen[v] = True
            return True

        spec = classify_slot(unseen_slot)
        assert spec.bool_arrays == ("fresh", "seen")
        state = StateStore(4)
        state.add_array("seen", bool, False)
        state.add_array("fresh", np.int64, 2)  # `~2` is no truth value
        assert not spec.compatible(state)
        state.add_array("fresh", bool, True)
        assert spec.compatible(state)

        def chained_slot(v, value, s):
            if 0 < s.seen[v] <= 1:
                return False
            s.seen[v] = True
            return True

        assert classify_slot(chained_slot) is None


# -- per-vertex tables of the neighbour-only roles ---------------------------
#
# A per-edge role that reads the neighbour alone is evaluated once per
# vertex and gathered per edge (`repro.exec.work.vertex_tables`).  The
# expressions are elementwise, so the gather must be the per-edge value
# bit for bit, whatever the dtypes and however the division goes.


def _div_sum_signal(v, nbrs, s, emit):
    total = 0.0
    start = total
    for u in nbrs:
        total += s.a[u] / s.b[u]
    if total > start:
        emit(total - start)


def _index_value_sum_signal(v, nbrs, s, emit):
    total = 0
    start = total
    for u in nbrs:
        total += s.a[u] * u - 1
    if total > start:
        emit(total - start)


def _ratio_count_signal(v, nbrs, s, emit):
    cnt = 0
    start = cnt
    for u in nbrs:
        if s.a[u] / s.b[u] >= s.t:
            cnt += 1
            if cnt >= s.k:
                break
    if cnt > start:
        emit(cnt - start)


def _shift_min_signal(v, nbrs, s, emit):
    best = s.a[v]
    for u in nbrs:
        if s.a[u] + u < best:
            best = s.a[u] + u
    if best < s.a[v]:
        emit(best)


def _index_first_signal(v, nbrs, s, emit):
    for u in nbrs:
        if u % 3 == 1 or s.a[u] > s.b[u]:
            emit(u)
            break


def _both_first_signal(v, nbrs, s, emit):
    for u in nbrs:
        if s.a[u] and s.b[u]:
            emit(u)
            break


def _dest_term_signal(v, nbrs, s, emit):
    total = 0.0
    start = total
    for u in nbrs:
        total += s.a[u] * s.b[v]
    if total > start:
        emit(total - start)


TABLE_SIGNALS = [
    fn for fns in SIGNAL_UDFS.values() for fn in fns
    if instrument_signal(fn).kernel is not None
] + [
    _div_sum_signal, _index_value_sum_signal, _ratio_count_signal,
    _shift_min_signal, _index_first_signal, _both_first_signal,
    _dest_term_signal,
]

_DTYPES = {"bool": bool, "int": np.int64, "float": np.float64}
_VALUES = {
    "bool": st.booleans(),
    "int": st.integers(-3, 3) | st.sampled_from([2**40, -(2**40)]),
    "float": st.sampled_from(
        [0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan, 5e-324]
    ) | st.floats(allow_nan=True, allow_infinity=True),
}


def _bits(array: np.ndarray) -> np.ndarray:
    """Floats as their bit patterns, so NaNs and signed zeros compare."""
    array = np.asarray(array)
    return array.view(np.int64) if array.dtype == np.float64 else array


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b))


@st.composite
def table_cases(draw):
    """A kernel spec, a state of drawn dtypes and values, and a graph."""
    fn = draw(st.sampled_from(TABLE_SIGNALS))
    spec = instrument_signal(fn).kernel
    n = draw(st.integers(1, 10))
    state = StateStore(n)
    for name in spec.arrays:
        kind = "bool" if name in spec.bool_arrays else draw(
            st.sampled_from(sorted(_DTYPES))
        )
        state.add_array(name, _DTYPES[kind])
        state.array(name)[:] = draw(
            st.lists(_VALUES[kind], min_size=n, max_size=n)
        )
    for name in spec.scalars:
        state.add_scalar(name, draw(
            st.booleans() if name in spec.bool_scalars
            else st.integers(1, 3) | st.sampled_from([0.5, 2.0])
        ))
    edges = {
        v: draw(st.lists(st.integers(0, n - 1), max_size=4))
        for v in range(n)
    }
    return fn, spec, state, toy_adjacency(n, edges)


class TestVertexTables:
    def test_which_roles_qualify(self):
        roles = {
            fn.__name__: instrument_signal(fn).kernel.vertex_roles
            for fn in TABLE_SIGNALS
        }
        assert roles["pagerank_signal"] == {"term": None}
        assert roles["relax_depth_signal"] == {"term": None}
        assert roles["scc_reach_signal"] == {"predicate": None}
        assert roles["bottom_up_signal"] == {"predicate": "frontier"}
        assert roles["cc_signal"] == {"term": "label"}
        assert roles["kcore_signal"] == {"predicate": "active"}
        assert roles["kmeans_signal"] == {"predicate": "assigned"}
        # reads the destination: stays per edge
        assert roles["mis_signal"] == {}
        assert roles["_dest_term_signal"] == {}
        assert roles["_index_first_signal"] == {"predicate": None}

    @settings(max_examples=300, deadline=None)
    @given(case=table_cases(), flat=st.lists(st.integers(0, 9), max_size=24))
    def test_gather_equals_per_edge_evaluation(self, case, flat):
        fn, spec, state, local = case
        flat = np.array(
            [u % state.num_vertices for u in flat], dtype=np.int64
        )
        tables = vertex_tables(spec, state)
        assert set(tables) <= set(spec.vertex_roles)
        with np.errstate(all="ignore"):
            for role, field in spec.vertex_roles.items():
                if field is not None:
                    assert tables[role] is getattr(state, field)
                per_edge = np.broadcast_to(
                    np.asarray(spec.exprs[role](state, flat, None)),
                    flat.shape,
                )
                assert _same(tables[role][flat], per_edge), fn.__name__
                if field is None and role in tables:
                    # a `[__u]`-only role's whole-array table and any
                    # other's over the ids: both the per-vertex values
                    ids = np.arange(state.num_vertices, dtype=np.int64)
                    by_id = np.broadcast_to(
                        np.asarray(spec.exprs[role](state, ids, None)),
                        ids.shape,
                    )
                    assert _same(tables[role], by_id), fn.__name__
            vertices = np.flatnonzero(local.degrees()).astype(np.int64)
            kernel = get_kernel(spec.kind)
            gathered = kernel(spec, state, local, vertices, tables=tables)
            evaluated = kernel(spec, state, local, vertices)
        for name in ("edges", "emit_mask", "values", "broke", "carried"):
            assert _same(
                getattr(gathered, name), getattr(evaluated, name)
            ), (fn.__name__, name)

    @pytest.mark.parametrize("name, whole", [
        ("pagerank_signal", True),  # rank[u] / out_degree[u]
        ("relax_depth_signal", True),  # depth[u] + 1
        ("_both_first_signal", True),  # a[u] & b[u]
        ("_index_value_sum_signal", False),  # a[u] * u - 1
        ("_shift_min_signal", False),  # a[u] + u
        ("_index_first_signal", False),  # u % 3 == 1 | ...
    ])
    def test_whole_subscript_roles_read_whole_arrays(self, name, whole):
        """A computed role whose every ``__u`` is the subscript
        ``[__u]`` is evaluated once over the whole arrays
        (``slice(None)``), any other over the vertex ids."""
        fn = {fn.__name__: fn for fn in TABLE_SIGNALS}[name]
        spec = instrument_signal(fn).kernel
        (role, field), = spec.vertex_roles.items()
        assert field is None
        indexes = []

        def recording(state, u, v, expr=spec.exprs[role]):
            indexes.append(u)
            return expr(state, u, v)

        spec = dataclasses.replace(
            spec, exprs={**spec.exprs, role: recording}
        )
        state = StateStore(5)
        for array in spec.arrays:
            state.add_array(
                array, bool if array in spec.bool_arrays else np.int64, 1
            )
        assert vertex_tables(spec, state)[role].shape == (5,)
        index, = indexes
        assert isinstance(index, slice) == whole
        if not whole:
            assert index.tolist() == list(range(5))

    def test_a_table_that_raises_stays_per_edge(self):
        def power_sum(v, nbrs, s, emit):
            total = 0
            start = total
            for u in nbrs:
                total += 2 ** s.e[u]
            if total > start:
                emit(total - start)

        spec = instrument_signal(power_sum).kernel
        assert spec.vertex_roles == {"term": None}
        state = StateStore(3)
        state.add_array("e", np.int64, 1)
        state.e[2] = -1  # no edge reads vertex 2
        assert vertex_tables(spec, state) == {}
        local = toy_adjacency(3, {0: [1], 1: [0, 1]})
        vertices = np.array([0, 1], dtype=np.int64)
        batch = get_kernel(spec.kind)(
            spec, state, local, vertices, tables=vertex_tables(spec, state)
        )
        assert batch.values.tolist() == [2, 4]

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

End-to-end engine equivalence (kernels on vs off, with faults) lives
in ``test_engine_equivalence.py``.
"""

import importlib

import numpy as np
import pytest

from repro.algorithms import SIGNAL_UDFS
from repro.analysis import fold_while
from repro.analysis.instrument import instrument_signal
from repro.analysis.kernelspec import (
    COUNT_TO_K_BREAK,
    FIRST_MATCH_BREAK,
    FULL_SCAN_MIN,
    FULL_SCAN_SUM,
)
from repro.engine import SympleGraphEngine, SympleOptions
from repro.engine.state import StateStore
from repro.graph import erdos_renyi, to_undirected
from repro.kernels import available_kernels, get_kernel, register_kernel
from repro.kernels import registry as kernel_registry
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
        # 2**62; once carried state arrives the fold runs in float64,
        # where 2**62 + 1 rounds back to 2**62: equal to the start, so
        # no emit, and real depths stay exact
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
                state.depth[self.VERTICES].astype(np.float64),
            ),
        )
        assert plain.values.dtype.kind == "i"
        assert carried.values.dtype.kind == "f"
        for batch in (plain, carried):
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


# -- escape hatch ----------------------------------------------------------


class TestEscapeHatch:
    def test_use_kernels_false_disables_fast_path(self):
        graph = to_undirected(erdos_renyi(40, 160, seed=9))
        part = OutgoingEdgeCut().partition(graph, 3)
        on = SympleGraphEngine(part, SympleOptions(use_kernels=True))
        off = SympleGraphEngine(part, SympleOptions(use_kernels=False))
        assert on.use_kernels and not off.use_kernels
        r_on = bfs_mod.bfs(on, 0, mode="bottomup")
        r_off = bfs_mod.bfs(off, 0, mode="bottomup")
        assert np.array_equal(r_on.depth, r_off.depth)
        assert on.counters.summary() == off.counters.summary()


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
    def one_pull(self, signal, use_kernels, verify, off=False):
        from repro.engine import GeminiEngine
        from repro.graph import rmat

        graph = rmat(scale=7, edge_factor=8, seed=3)
        engine = GeminiEngine(
            OutgoingEdgeCut().partition(graph, 4),
            use_kernels=use_kernels, verify=verify,
        )
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
    def test_kernel_path_equals_interpreter(self, signal, verify):
        fast = self.one_pull(signal, True, verify)
        assert fast == self.one_pull(signal, False, verify)
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
    def test_a_lone_scalar_takes_pythons_not(self, off):
        # `not s.off` stays Python's `not` (no dtype to require), so the
        # kernel runs and agrees whatever the scalar is
        spec = instrument_signal(python_not_signal).kernel
        assert "not __state.off" in spec.sources["predicate"]
        assert spec.bool_scalars == () and spec.bool_arrays == ("flag",)
        assert self.one_pull(python_not_signal, True, "off", off) == (
            self.one_pull(python_not_signal, False, "off", off)
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

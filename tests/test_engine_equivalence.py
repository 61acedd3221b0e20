"""Property-based cross-engine equivalence.

The paper's correctness argument (Section 2.3): algorithms satisfying
Definition 2.2 produce identical results on every engine, and
SympleGraph's precise enforcement only removes *redundant* work.  We
fuzz over random graphs, machine counts, and thresholds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs, connected_components, kcore, mis, pagerank
from repro.engine import (
    DGaloisEngine,
    GeminiEngine,
    SingleThreadEngine,
    SympleGraphEngine,
    SympleOptions,
)
from repro.fault import FaultController, FaultPlan, MessageFault
from repro.graph import erdos_renyi, to_undirected
from repro.partition import OutgoingEdgeCut


def random_graph(seed, n=48, m=220):
    return to_undirected(erdos_renyi(n, m, seed=seed))


def engine_pair(graph, machines, threshold):
    gemini = GeminiEngine(OutgoingEdgeCut().partition(graph, machines))
    symple = SympleGraphEngine(
        OutgoingEdgeCut().partition(graph, machines),
        options=SympleOptions(degree_threshold=threshold),
    )
    return gemini, symple


graph_cases = st.tuples(
    st.integers(0, 10_000),  # graph seed
    st.sampled_from([2, 3, 4, 5, 8]),  # machines
    st.sampled_from([0, 2, 8, 10**9]),  # degree threshold
)


class TestBFSEquivalence:
    @given(graph_cases)
    @settings(max_examples=25, deadline=None)
    def test_depths_equal_and_edges_fewer(self, case):
        seed, machines, threshold = case
        graph = random_graph(seed)
        gemini, symple = engine_pair(graph, machines, threshold)
        root = int(np.argmax(graph.out_degrees()))
        d1 = bfs(gemini, root, mode="bottomup").depth
        d2 = bfs(symple, root, mode="bottomup").depth
        assert np.array_equal(d1, d2)
        assert (
            symple.counters.edges_traversed <= gemini.counters.edges_traversed
        )


class TestMISEquivalence:
    @given(graph_cases)
    @settings(max_examples=20, deadline=None)
    def test_sets_identical(self, case):
        seed, machines, threshold = case
        graph = random_graph(seed)
        gemini, symple = engine_pair(graph, machines, threshold)
        m1 = mis(gemini, seed=seed).in_mis
        m2 = mis(symple, seed=seed).in_mis
        assert np.array_equal(m1, m2)


class TestKCoreEquivalence:
    @given(graph_cases, st.sampled_from([2, 3, 5]))
    @settings(max_examples=20, deadline=None)
    def test_cores_identical(self, case, k):
        seed, machines, threshold = case
        graph = random_graph(seed)
        gemini, symple = engine_pair(graph, machines, threshold)
        c1 = kcore(gemini, k=k).in_core
        c2 = kcore(symple, k=k).in_core
        assert np.array_equal(c1, c2)


class TestEdgeSavingsTheorem:
    """Definition 2.4: enforcing the dependency can only *remove* work
    relative to the same partition and scan order.  (Note: comparing
    against the sequential oracle is NOT a theorem — circulant order
    may find the break earlier or later than ascending order.)"""

    @given(graph_cases, st.sampled_from([2, 4]))
    @settings(max_examples=15, deadline=None)
    def test_kcore_edges_never_exceed_gemini(self, case, k):
        seed, machines, threshold = case
        graph = random_graph(seed)
        gemini, symple = engine_pair(graph, machines, threshold)
        kcore(gemini, k=k)
        kcore(symple, k=k)
        assert (
            symple.counters.edges_traversed
            <= gemini.counters.edges_traversed
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_single_machine_symple_equals_single_thread(self, seed):
        """With one machine the engines are literally the same scan."""
        graph = random_graph(seed)
        single = SingleThreadEngine(graph)
        symple = SympleGraphEngine(OutgoingEdgeCut().partition(graph, 1))
        root = int(np.argmax(graph.out_degrees()))
        bfs(single, root, mode="bottomup")
        bfs(symple, root, mode="bottomup")
        assert (
            symple.counters.edges_traversed
            == single.counters.edges_traversed
        )


class TestCCEquivalence:
    @given(st.integers(0, 10_000), st.sampled_from([2, 4]))
    @settings(max_examples=15, deadline=None)
    def test_labels_identical(self, seed, machines):
        graph = random_graph(seed)
        gemini, symple = engine_pair(graph, machines, 0)
        l1 = connected_components(gemini).label
        l2 = connected_components(symple).label
        assert np.array_equal(l1, l2)


# -- kernel fast path vs per-vertex interpreter -----------------------------
#
# The batched NumPy kernels must be invisible: same results, same
# counters, same traffic, byte for byte.  We run every algorithm on
# every engine twice — fast paths on and off (the ``interpreted``
# fixture) — and diff everything the engines observe.

ALGORITHMS = {
    "bfs": lambda eng: bfs(eng, 0, mode="bottomup"),
    "mis": lambda eng: mis(eng, seed=5),
    "kcore": lambda eng: kcore(eng, k=3),
    "pagerank": lambda eng: pagerank(eng, iterations=6),
    "cc": connected_components,
}

ENGINES = {
    "gemini": GeminiEngine,
    "dgalois": DGaloisEngine,
    "symple": SympleGraphEngine,
}


def assert_observably_identical(eng_a, res_a, eng_b, res_b):
    """Results, counters, and network observations match bit for bit."""
    arrays_a = {
        k: v for k, v in vars(res_a).items() if isinstance(v, np.ndarray)
    }
    arrays_b = {
        k: v for k, v in vars(res_b).items() if isinstance(v, np.ndarray)
    }
    assert arrays_a.keys() == arrays_b.keys()
    for key in arrays_a:
        assert np.array_equal(arrays_a[key], arrays_b[key]), key
    assert eng_a.counters.summary() == eng_b.counters.summary()
    for tag in eng_a.network.traffic:
        assert np.array_equal(
            eng_a.network.traffic[tag], eng_b.network.traffic[tag]
        ), tag
        assert np.array_equal(
            eng_a.network.message_counts[tag],
            eng_b.network.message_counts[tag],
        ), tag


class TestKernelInterpreterEquivalence:
    @pytest.mark.parametrize("machines", [1, 3, 4])
    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_bit_identical(self, interpreted, algorithm, engine_name,
                           machines):
        graph = random_graph(seed=7, n=60, m=280)
        part = OutgoingEdgeCut().partition(graph, machines)
        run = ALGORITHMS[algorithm]
        eng_on = ENGINES[engine_name](part)
        eng_off = interpreted(ENGINES[engine_name](part))
        assert_observably_identical(
            eng_on, run(eng_on), eng_off, run(eng_off)
        )

    @pytest.mark.parametrize("algorithm", ["bfs", "kcore", "cc"])
    def test_isolated_vertices_are_skipped_identically(self, interpreted,
                                                       algorithm):
        # satellite: zero-degree vertices never enter a pull batch
        graph = to_undirected(erdos_renyi(50, 90, seed=3))
        part = OutgoingEdgeCut().partition(graph, 3)
        run = ALGORITHMS[algorithm]
        eng_on = SympleGraphEngine(part)
        eng_off = interpreted(SympleGraphEngine(part))
        assert_observably_identical(
            eng_on, run(eng_on), eng_off, run(eng_off)
        )


class TestKernelEquivalenceUnderFaults:
    """Kernels must stay invisible under fault injection too — the RNG
    draw sequence (dep-loss coin flips, delivery-hook draws) is part of
    the observable behavior, so both paths must replay it exactly."""

    @pytest.mark.parametrize("algorithm", ["bfs", "mis", "kcore"])
    def test_dep_loss_plan(self, interpreted, algorithm):
        graph = random_graph(seed=13, n=60, m=280)
        part = OutgoingEdgeCut().partition(graph, 4)
        run = ALGORITHMS[algorithm]
        results = {}
        for uk in (True, False):
            eng = SympleGraphEngine(part)
            if not uk:
                interpreted(eng)
            controller = FaultController(FaultPlan.dep_loss(0.3, seed=11), 4)
            eng.attach_faults(controller)
            results[uk] = (eng, run(eng), controller)
        eng_on, res_on, ctl_on = results[True]
        eng_off, res_off, ctl_off = results[False]
        assert_observably_identical(eng_on, res_on, eng_off, res_off)
        assert ctl_on.stats == ctl_off.stats

    @pytest.mark.parametrize("algorithm", ["bfs", "pagerank", "cc"])
    def test_update_duplicates_force_per_vertex_sends(self, interpreted,
                                                      algorithm):
        # a delivery hook draws once per message, so the kernel path
        # must fall back to per-vertex sends in ascending order
        plan = FaultPlan(
            seed=3, messages=(MessageFault("duplicate", 0.2, tag="update"),)
        )
        graph = random_graph(seed=19, n=60, m=280)
        part = OutgoingEdgeCut().partition(graph, 4)
        run = ALGORITHMS[algorithm]
        results = {}
        for uk in (True, False):
            eng = SympleGraphEngine(part)
            if not uk:
                interpreted(eng)
            controller = FaultController(plan, 4)
            eng.attach_faults(controller)
            results[uk] = (eng, run(eng), controller)
        eng_on, res_on, ctl_on = results[True]
        eng_off, res_off, ctl_off = results[False]
        assert_observably_identical(eng_on, res_on, eng_off, res_off)
        assert ctl_on.stats == ctl_off.stats

    @pytest.mark.parametrize("algorithm", ["bfs", "kcore"])
    def test_combined_dep_loss_and_duplicates(self, interpreted,
                                              algorithm):
        # dep drops + a delivery-hook fault share one generator; the
        # parent draws both (dep coins per step, then per-message), so
        # the kernel path stays on and must match the interpreter
        plan = FaultPlan(
            seed=23,
            messages=(
                MessageFault("drop", 0.2, tag="dep"),
                MessageFault("duplicate", 0.15, tag="update"),
            ),
        )
        graph = random_graph(seed=23, n=60, m=280)
        part = OutgoingEdgeCut().partition(graph, 4)
        run = ALGORITHMS[algorithm]
        results = {}
        for uk in (True, False):
            eng = SympleGraphEngine(part)
            if not uk:
                interpreted(eng)
            controller = FaultController(plan, 4)
            eng.attach_faults(controller)
            results[uk] = (eng, run(eng), controller)
        eng_on, res_on, ctl_on = results[True]
        eng_off, res_off, ctl_off = results[False]
        assert_observably_identical(eng_on, res_on, eng_off, res_off)
        assert ctl_on.stats == ctl_off.stats

"""Failure injection: lost dependency messages (Section 5.1).

"Before starting a new step, if a machine does not wait for receiving
the full dependency communication from the previous step, the
correctness is not compromised.  With incomplete information, the
framework will just miss some opportunities to eliminate unnecessary
computation and communication."
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs, kcore, mis
from repro.engine import SympleGraphEngine, SympleOptions
from repro.errors import EngineError
from repro.fault import FaultController, FaultPlan
from repro.graph import erdos_renyi, rmat, to_undirected
from repro.partition import OutgoingEdgeCut


def engine_with_loss(graph, rate, seed=0, machines=4):
    options = SympleOptions(degree_threshold=0)
    engine = SympleGraphEngine(
        OutgoingEdgeCut().partition(graph, machines), options=options
    )
    engine.attach_faults(
        FaultController(FaultPlan.dep_loss(rate, seed=seed), machines)
    )
    return engine


@pytest.fixture(scope="module")
def graph():
    return to_undirected(rmat(scale=8, edge_factor=8, seed=95))


class TestCorrectnessUnderLoss:
    @pytest.mark.parametrize("rate", [0.25, 0.75, 1.0])
    def test_mis_identical(self, graph, rate):
        clean = mis(engine_with_loss(graph, 0.0), seed=1).in_mis
        lossy = mis(engine_with_loss(graph, rate), seed=1).in_mis
        assert np.array_equal(clean, lossy)

    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_bfs_depths_identical(self, graph, rate):
        root = int(np.argmax(graph.out_degrees()))
        clean = bfs(engine_with_loss(graph, 0.0), root, mode="bottomup")
        lossy = bfs(engine_with_loss(graph, rate), root, mode="bottomup")
        assert np.array_equal(clean.depth, lossy.depth)

    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_kcore_identical(self, graph, rate):
        clean = kcore(engine_with_loss(graph, 0.0), k=4).in_core
        lossy = kcore(engine_with_loss(graph, rate), k=4).in_core
        assert np.array_equal(clean, lossy)

    @given(st.integers(0, 500), st.sampled_from([0.3, 0.7]))
    @settings(max_examples=10, deadline=None)
    def test_random_graphs_identical(self, seed, rate):
        g = to_undirected(erdos_renyi(40, 200, seed=seed))
        clean = mis(engine_with_loss(g, 0.0), seed=seed).in_mis
        lossy = mis(engine_with_loss(g, rate, seed=seed), seed=seed).in_mis
        assert np.array_equal(clean, lossy)


class TestSavingsDegrade:
    def test_edges_monotone_in_loss_rate(self, graph):
        """More lost messages -> fewer skips -> more edges scanned,
        bounded above by total-loss behaviour."""
        root = int(np.argmax(graph.out_degrees()))
        edges = {}
        for rate in (0.0, 0.5, 1.0):
            engine = engine_with_loss(graph, rate)
            bfs(engine, root, mode="bottomup")
            edges[rate] = engine.counters.edges_traversed
        assert edges[0.0] <= edges[0.5] <= edges[1.0]
        assert edges[1.0] > edges[0.0]

    def test_total_loss_approaches_gemini(self, graph):
        """Losing every control bit degenerates SympleGraph's traversal
        to Gemini's (Section 5.1: 'Gemini can be considered as a special
        case without dependency communication')."""
        from repro.engine import GeminiEngine

        root = int(np.argmax(graph.out_degrees()))
        lossy = engine_with_loss(graph, 1.0)
        gemini = GeminiEngine(OutgoingEdgeCut().partition(graph, 4))
        bfs(lossy, root, mode="bottomup")
        bfs(gemini, root, mode="bottomup")
        assert lossy.counters.edges_traversed == gemini.counters.edges_traversed


class TestDrawOrderPinned:
    """The dep-loss coins are drawn by the parent while it builds each
    circulant step's pull units, machine-ascending then
    vertex-ascending.  These values were recorded at the last commit
    that still drew them inside an in-engine per-vertex loop: the draw
    order — hence every digest and every controller statistic — is the
    one that loop made, with kernels on and off."""

    # algorithm -> (Session digest, engine-level dep_losses)
    PINNED = {
        "kcore": (
            "27273e5c2c75d69466d9fa8b614058d182e4fe045cf72ecae4772205fbda544a",
            41,
        ),
        "bfs": (
            "adaf51b89894df6b2f1f1823c3c2ecf949c6b987e8f5ff7d11a99e7d7bb2dca5",
            33,
        ),
        "mis": (
            "e80cfdc5758b0e6e30beae8cf3a9e6428c27c02c70729f9847a86a33e83e2cc7",
            40,
        ),
    }

    @pytest.mark.parametrize("use_kernels", [True, False])
    @pytest.mark.parametrize("algorithm", sorted(PINNED))
    def test_digest_and_controller_stats(self, algorithm, use_kernels):
        from repro.api import RunConfig, Session

        graph = to_undirected(erdos_renyi(64, 300, seed=11))
        plan = FaultPlan.dep_loss(0.3, seed=5)
        options = SympleOptions(use_kernels=use_kernels)
        digest, dep_losses = self.PINNED[algorithm]

        config = RunConfig(
            engine="symple", algorithm=algorithm, machines=4, seed=3,
            kcore_k=2, bfs_roots=2, faults=plan, options=options,
        )
        with Session(graph, config) as session:
            assert session.run().digest() == digest

        engine = SympleGraphEngine(
            OutgoingEdgeCut().partition(graph, 4), options
        )
        controller = FaultController(plan, 4)
        engine.attach_faults(controller)
        if algorithm == "kcore":
            kcore(engine, k=2)
        elif algorithm == "bfs":
            root = int(np.argmax(graph.out_degrees()))
            bfs(engine, root, mode="bottomup")
        else:
            mis(engine, seed=3)
        expected = dict.fromkeys(controller.stats, 0)
        expected["dep_losses"] = dep_losses
        assert controller.stats == expected


class TestOptionValidation:
    def test_removed_options_point_at_fault_plan(self):
        with pytest.raises(EngineError, match="FaultPlan.dep_loss"):
            SympleOptions(dep_loss_rate=0.5)
        with pytest.raises(EngineError, match="FaultPlan.dep_loss"):
            SympleOptions(dep_loss_seed=3)

    def test_plan_rate_out_of_range_rejected(self):
        with pytest.raises(Exception):
            FaultPlan.dep_loss(1.5)
        with pytest.raises(Exception):
            FaultPlan.dep_loss(-0.1)

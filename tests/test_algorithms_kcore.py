"""K-core: iterative and peel variants against a networkx oracle."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import IncrementalKCore, kcore, kcore_peel
from repro.api import RunConfig, Session
from repro.engine import make_engine
from repro.errors import GraphError
from repro.graph import (
    CSRGraph,
    attach_chain,
    complete_graph,
    cycle_graph,
    path_graph,
    rmat,
    to_undirected,
)

from conftest import make_all_engines


def nx_core_members(graph, k):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(graph.edges())
    g.remove_edges_from(nx.selfloop_edges(g))
    core = nx.k_core(g, k)
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[list(core.nodes)] = True
    return mask


@pytest.fixture(scope="module")
def graph():
    return to_undirected(rmat(scale=8, edge_factor=8, seed=31))


class TestAgainstOracle:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_iterative_matches_networkx(self, graph, k):
        engine = make_engine("symple", graph, 4)
        result = kcore(engine, k=k)
        assert np.array_equal(result.in_core, nx_core_members(graph, k))

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_peel_matches_networkx(self, graph, k):
        result = kcore_peel(graph, k=k)
        assert np.array_equal(result.in_core, nx_core_members(graph, k))

    def test_iterative_and_peel_agree(self, graph):
        engine = make_engine("gemini", graph, 4)
        iterative = kcore(engine, k=4)
        peel = kcore_peel(graph, k=4)
        assert np.array_equal(iterative.in_core, peel.in_core)


class TestStructuredGraphs:
    def test_cycle_is_its_own_2core(self):
        result = kcore(make_engine("symple", cycle_graph(8), 2), k=2)
        assert result.size == 8

    def test_path_has_empty_2core(self):
        result = kcore(make_engine("gemini", path_graph(8), 2), k=2)
        assert result.size == 0

    def test_complete_graph_core(self):
        result = kcore(make_engine("symple", complete_graph(6), 2), k=5)
        assert result.size == 6

    def test_k_larger_than_any_degree_empty(self):
        result = kcore(make_engine("gemini", cycle_graph(8), 2), k=3)
        assert result.size == 0

    def test_chain_peels_one_round_per_link(self):
        """The long-chain structure that slows the iterative algorithm
        on social graphs (Section 7.2): a chain of length L takes ~L
        rounds to dissolve."""
        g = attach_chain(complete_graph(6), 10)
        engine = make_engine("gemini", g, 2)
        result = kcore(engine, k=2)
        assert result.rounds >= 10

    def test_invalid_k_rejected(self, graph):
        """Typed, as ``IncrementalKCore`` refuses the same k."""
        with pytest.raises(GraphError, match="kcore: k must be >= 1"):
            kcore(make_engine("gemini", graph, 2), k=0)
        with pytest.raises(GraphError, match="kcore: k must be >= 1"):
            kcore_peel(graph, k=0)


#: not integers: every entry point refuses them alike, none truncates
NOT_INTEGER_K = [2.5, True, "3"]


class TestIntegerK:
    @pytest.mark.parametrize("k", NOT_INTEGER_K, ids=repr)
    def test_kcore_refuses(self, graph, k):
        with pytest.raises(GraphError, match="kcore: k must be"):
            kcore(make_engine("gemini", graph, 2), k)

    @pytest.mark.parametrize("k", NOT_INTEGER_K, ids=repr)
    def test_kcore_peel_refuses(self, graph, k):
        with pytest.raises(GraphError, match="kcore: k must be"):
            kcore_peel(graph, k)

    @pytest.mark.parametrize("k", NOT_INTEGER_K, ids=repr)
    def test_incremental_kcore_refuses(self, graph, k):
        with Session(graph, RunConfig(machines=2)) as session:
            with pytest.raises(GraphError, match="kcore: k must be"):
                IncrementalKCore(session, k=k)

    def test_numpy_integer_accepted(self, graph):
        peel = kcore_peel(graph, np.int64(3))
        assert peel.k == 3 and type(peel.k) is int
        result = kcore(make_engine("gemini", graph, 2), np.int32(3))
        np.testing.assert_array_equal(result.in_core, peel.in_core)


class TestCrossEngine:
    @pytest.mark.parametrize("k", [3, 6])
    def test_all_engines_identical(self, graph, k):
        results = {
            kind: kcore(engine, k=k).in_core
            for kind, engine in make_all_engines(graph).items()
        }
        base = results.pop("single")
        for kind, r in results.items():
            assert np.array_equal(r, base), kind

    def test_symple_traverses_fewer_edges(self, graph):
        engines = make_all_engines(graph)
        kcore(engines["gemini"], k=5)
        kcore(engines["symple"], k=5)
        assert (
            engines["symple"].counters.edges_traversed
            < engines["gemini"].counters.edges_traversed
        )


class TestPeelAccounting:
    def test_edges_touched_bounded(self, graph):
        result = kcore_peel(graph, k=3)
        assert 0 <= result.edges_touched <= graph.num_edges

    def test_simulated_time_positive(self, graph):
        assert kcore_peel(graph, k=3).simulated_time > 0

    def test_nothing_peeled_when_k_one(self):
        # every vertex of a cycle has degree 2 >= 1
        result = kcore_peel(cycle_graph(8), k=1)
        assert result.size == 8
        assert result.edges_touched == 0

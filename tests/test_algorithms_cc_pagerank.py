"""Connected components and PageRank (the no-control-dependency controls)."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import connected_components, pagerank
from repro.engine import make_engine
from repro.graph import CSRGraph, cycle_graph, path_graph, rmat, to_undirected

from conftest import make_all_engines


@pytest.fixture(scope="module")
def graph():
    return to_undirected(rmat(scale=8, edge_factor=6, seed=51))


def nx_components(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(graph.edges())
    labels = np.zeros(graph.num_vertices, dtype=np.int64)
    for comp in nx.connected_components(g):
        rep = min(comp)
        for v in comp:
            labels[v] = rep
    return labels


class TestConnectedComponents:
    @pytest.mark.parametrize("kind", ["gemini", "symple", "dgalois", "single"])
    def test_matches_networkx(self, graph, kind):
        engine = make_engine(kind, graph, 4)
        result = connected_components(engine)
        assert np.array_equal(result.label, nx_components(graph))

    def test_two_components(self):
        g = CSRGraph.from_edges(
            6, [(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]
        )
        result = connected_components(make_engine("gemini", g, 2))
        assert result.label[0] == result.label[1] == result.label[2]
        assert result.label[3] == result.label[4]
        assert result.label[0] != result.label[3]
        assert result.label[5] == 5  # isolated vertex keeps its own label
        assert result.num_components == 3

    def test_cycle_single_component(self):
        result = connected_components(make_engine("symple", cycle_graph(9), 3))
        assert result.num_components == 1

    def test_no_dependency_traffic(self, graph):
        """CC has no break, and its carried min label folds into a
        min-fold slot: the partial minima combine at the master, so
        SympleGraph sends no dependency bytes."""
        engine = make_engine("symple", graph, 4)
        result = connected_components(engine)
        assert result.iterations >= 1
        assert engine.counters.bytes_by_tag["dep"] == 0


class TestPageRank:
    def test_matches_networkx(self, graph):
        engine = make_engine("gemini", graph, 4)
        result = pagerank(engine, damping=0.85, iterations=40)
        g = nx.DiGraph(list(graph.edges()))
        g.add_nodes_from(range(graph.num_vertices))
        expected = nx.pagerank(g, alpha=0.85, max_iter=200, tol=1e-12)
        expected_arr = np.array([expected[v] for v in range(graph.num_vertices)])
        assert np.allclose(result.rank, expected_arr, atol=1e-6)

    def test_ranks_sum_to_one(self, graph):
        result = pagerank(make_engine("symple", graph, 4), iterations=15)
        assert result.rank.sum() == pytest.approx(1.0, abs=1e-9)

    def test_cross_engine_agreement(self, graph):
        ranks = {
            kind: pagerank(e, iterations=10).rank
            for kind, e in make_all_engines(graph).items()
        }
        base = ranks.pop("single")
        for kind, r in ranks.items():
            assert np.allclose(r, base, atol=1e-9), kind

    def test_early_stop_on_tolerance(self, graph):
        result = pagerank(
            make_engine("gemini", graph, 2), iterations=500, tolerance=1e-3
        )
        assert result.iterations < 500
        assert result.residual < 1e-3

    def test_hub_ranks_highest_on_star(self):
        from repro.graph import star_graph

        result = pagerank(make_engine("gemini", star_graph(9), 2), iterations=30)
        assert int(np.argmax(result.rank)) == 0

    def test_empty_graph(self):
        g = CSRGraph.from_edges(0, [])
        result = pagerank(make_engine("gemini", g, 1))
        assert result.rank.size == 0

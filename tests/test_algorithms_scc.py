"""SCC against a networkx oracle."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.scc import _reachable, scc
from repro.engine import make_engine
from repro.errors import ConvergenceError
from repro.graph import CSRGraph, cycle_graph, path_graph, rmat


def nx_scc_labels(graph):
    g = nx.DiGraph(list(graph.edges()))
    g.add_nodes_from(range(graph.num_vertices))
    labels = np.zeros(graph.num_vertices, dtype=np.int64)
    for comp in nx.strongly_connected_components(g):
        rep = min(comp)
        for v in comp:
            labels[v] = rep
    return labels


def canonical(component):
    """Map each vertex to the minimum member of its component."""
    out = component.copy()
    for rep in np.unique(component):
        members = np.flatnonzero(component == rep)
        out[members] = members.min()
    return out


@pytest.fixture(scope="module")
def graph():
    return rmat(scale=7, edge_factor=6, seed=71)  # directed!


class TestAgainstOracle:
    @pytest.mark.parametrize("kind", ["gemini", "symple"])
    def test_matches_networkx(self, graph, kind):
        result = scc(graph, engine_kind=kind, num_machines=4, seed=1)
        assert np.array_equal(canonical(result.component), nx_scc_labels(graph))

    def test_seed_invariance_of_partition(self, graph):
        a = scc(graph, num_machines=4, seed=1)
        b = scc(graph, num_machines=4, seed=99)
        assert np.array_equal(canonical(a.component), canonical(b.component))


class TestStructuredGraphs:
    def test_directed_cycle_single_scc(self):
        g = cycle_graph(6, directed=True)
        result = scc(g, num_machines=2)
        assert result.num_components == 1

    def test_directed_path_all_singletons(self):
        g = path_graph(6, directed=True)
        result = scc(g, num_machines=2)
        assert result.num_components == 6

    def test_two_cycles_with_bridge(self):
        # cycle {0,1,2}, cycle {3,4,5}, bridge 2->3
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        g = CSRGraph.from_edges(6, edges)
        result = scc(g, num_machines=2)
        comp = canonical(result.component)
        assert comp[0] == comp[1] == comp[2]
        assert comp[3] == comp[4] == comp[5]
        assert comp[0] != comp[3]

    def test_self_loop_is_singleton(self):
        g = CSRGraph.from_edges(2, [(0, 0), (0, 1)])
        result = scc(g, num_machines=1)
        assert result.num_components == 2

    def test_empty_graph(self):
        g = CSRGraph.from_edges(4, [])
        result = scc(g, num_machines=2)
        assert result.num_components == 4

    def test_round_budget(self, graph):
        with pytest.raises(ConvergenceError):
            scc(graph, num_machines=2, max_rounds=0)


class TestSweeps:
    def test_engine_on_graph_sweeps_forward_on_transpose_backward(self):
        """A pull scans in-edges, so the sweep follows the engine
        graph's edges: descendants on the graph, ancestors on its
        transpose."""
        graph = path_graph(5, directed=True)  # 0 -> 1 -> 2 -> 3 -> 4
        src, dst = graph.edge_array()
        transpose = CSRGraph(5, dst, src)
        everything = np.ones(5, dtype=bool)
        forward = _reachable(make_engine("symple", graph, 2), 2, everything)
        backward = _reachable(
            make_engine("symple", transpose, 2), 2, everything
        )
        assert np.flatnonzero(forward).tolist() == [2, 3, 4]
        assert np.flatnonzero(backward).tolist() == [0, 1, 2]


class TestMetrics:
    def test_counters_merged_into_collector(self, graph):
        collector = make_engine("gemini", graph, 4)
        scc(graph, engine_kind="symple", num_machines=4,
            collect_metrics=collector)
        assert collector.counters.edges_traversed > 0

    def test_symple_scans_fewer_edges(self, graph):
        gem = make_engine("gemini", graph, 4)
        sym = make_engine("gemini", graph, 4)
        scc(graph, engine_kind="gemini", num_machines=4, collect_metrics=gem)
        scc(graph, engine_kind="symple", num_machines=4, collect_metrics=sym)
        assert sym.counters.edges_traversed <= gem.counters.edges_traversed

"""Engine internals: update buffering, sampling's two-phase protocol,
push under vertex-cut, network/counter consistency, DSL integration."""

import numpy as np
import pytest

from repro.algorithms import kcore, mis, sample_neighbors
from repro.analysis import fold_while
from repro.engine import (
    GeminiEngine,
    SympleGraphEngine,
    SympleOptions,
    make_engine,
)
from repro.engine.base import _UpdateBuffer
from repro.graph import rmat, star_graph, to_undirected, with_vertex_weights
from repro.partition import CartesianVertexCut, OutgoingEdgeCut


@pytest.fixture(scope="module")
def graph():
    return to_undirected(rmat(scale=8, edge_factor=8, seed=111))


class TestUpdateBuffer:
    def test_applies_in_insertion_order(self):
        buffer = _UpdateBuffer()
        log = []

        def slot(v, value, s):
            log.append((v, value))
            return False

        # list-valued bins (values that are no numeric array) take the
        # scalar loop, bin after bin
        buffer.append(np.array([3, 1]), ["a", "b"])
        buffer.append(np.array([], dtype=np.int64), [])
        buffer.append(np.array([3]), ["c"])
        assert len(buffer.bins) == 2  # an empty unit leaves no bin
        changed, applied = buffer.apply(slot, None)
        assert log == [(3, "a"), (1, "b"), (3, "c")]
        assert applied == 3
        assert changed.size == 0

    def test_changed_deduplicates(self):
        buffer = _UpdateBuffer()
        buffer.append(np.array([5, 2, 5]), np.array([1, 2, 3]))
        changed, _ = buffer.apply(lambda v, x, s: True, None)
        assert changed.tolist() == [5, 2]  # first-success order


class TestSamplingTwoPhase:
    def test_gemini_scans_all_edges_plus_rescan(self, graph):
        """Phase 1 scans every in-edge; phase 2 rescans part of the
        owning machine's slice — total strictly above |E| but below
        2|E| (Table 5's Gemini sampling row sits at 1.03-1.21)."""
        engine = GeminiEngine(OutgoingEdgeCut().partition(graph, 4))
        sample_neighbors(engine, seed=5)
        edges = engine.counters.edges_traversed
        assert graph.num_edges < edges < 2 * graph.num_edges

    def test_gemini_phase2_messages_bounded(self, graph):
        """At most two 8-byte messages per sampled vertex cross the
        network in phase 2 (request + reply)."""
        engine = GeminiEngine(OutgoingEdgeCut().partition(graph, 4))
        result = sample_neighbors(engine, seed=5)
        sampled = result.sampled_count
        # phase 1: one update per (v, holder) pair; phase 2: <= 2 per v
        phase1_max = int(
            sum(
                engine.partition.in_replica_count(v)
                for v in range(graph.num_vertices)
            )
        )
        messages = engine.counters.messages_by_tag["update"]
        assert messages <= phase1_max + 2 * sampled

    def test_symple_single_pass(self, graph):
        """SympleGraph samples in one dependency-threaded pass: well
        under |E| edges on a skewed graph."""
        engine = SympleGraphEngine(OutgoingEdgeCut().partition(graph, 4))
        sample_neighbors(engine, seed=5)
        assert engine.counters.edges_traversed < graph.num_edges


class TestPushUnderVertexCut:
    def test_mirror_broadcast_counted(self):
        """Under CVC a frontier vertex's out-edges live off-master, so
        pushing requires mirror activation traffic."""
        g = star_graph(24)
        engine = make_engine("dgalois", g, 4)
        s = engine.new_state()
        engine.push(
            lambda u, v, s: u, lambda v, x, s: False, s, np.array([0])
        )
        assert engine.counters.push_bytes > 0

    def test_outgoing_cut_needs_no_broadcast_for_local_master(self):
        g = star_graph(24)
        part = OutgoingEdgeCut().partition(g, 4)
        engine = GeminiEngine(part)
        s = engine.new_state()
        engine.push(
            lambda u, v, s: None, lambda v, x, s: False, s, np.array([0])
        )
        # signal returns None everywhere: the only possible traffic
        # would be mirror broadcast, and out-edges are master-local
        assert engine.counters.push_bytes == 0


class TestNetworkCounterConsistency:
    def test_matrix_totals_equal_counters(self, graph):
        engine = SympleGraphEngine(
            OutgoingEdgeCut().partition(graph, 4),
            options=SympleOptions(degree_threshold=0),
        )
        mis(engine, seed=3)
        for tag in ("update", "dep", "sync", "push"):
            assert (
                int(engine.network.traffic[tag].sum())
                == engine.counters.bytes_by_tag[tag]
            ), tag

    def test_diagonal_always_zero(self, graph):
        engine = GeminiEngine(OutgoingEdgeCut().partition(graph, 4))
        kcore(engine, k=4)
        for tag, matrix in engine.network.traffic.items():
            assert np.all(np.diag(matrix) == 0), tag


class TestDSLThroughEngines:
    def make_fold(self):
        return fold_while(
            initial=0.0,
            compose=lambda acc, u, v, s: acc + s.weight[u],
            exit_when=lambda acc, u, v, s: acc >= s.r[v],
            on_exit=lambda acc, u, v, s, emit: emit(u),
        )

    def run(self, engine, graph):
        s = engine.new_state()
        weights = with_vertex_weights(graph.num_vertices, seed=9)
        s.set("weight", weights)
        # threshold at 60% of each vertex's in-weight mass so a
        # crossing always exists
        totals = np.zeros(graph.num_vertices)
        has_in = graph.in_degrees() > 0
        if graph.num_edges:
            totals[has_in] = np.add.reduceat(
                weights[graph.in_indices], graph.in_indptr[:-1][has_in]
            )
        s.set("r", totals * 0.6)
        s.add_array("select", np.int64, -1)

        def slot(v, value, s):
            if s.select[v] < 0:
                s.select[v] = int(value)
                return True
            return False

        active = graph.in_degrees() > 0
        engine.pull(
            self.make_fold(), slot, s, active,
            allow_differentiated=False,
        )
        return s.select

    def test_fold_while_runs_on_symple_with_dependency(self, graph):
        engine = SympleGraphEngine(OutgoingEdgeCut().partition(graph, 4))
        select = self.run(engine, graph)
        assert (select[graph.in_degrees() > 0] >= 0).all()
        assert engine.counters.dep_bytes > 0

    def test_fold_while_valid_on_gemini(self, graph):
        """Gemini runs the DSL's original form per machine; each local
        prefix crossing emits, first applied wins — a valid (if
        differently distributed) sample."""
        engine = GeminiEngine(OutgoingEdgeCut().partition(graph, 4))
        select = self.run(engine, graph)
        for v in np.flatnonzero(select >= 0)[:100]:
            assert select[v] in graph.in_neighbors(int(v))

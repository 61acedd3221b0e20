"""Shared engine machinery: counting, sync accounting, push phase."""

import numpy as np
import pytest

from repro.engine import GeminiEngine, make_engine
from repro.exec.work import CountingNeighbors
from repro.errors import EngineError
from repro.graph import CSRGraph, cycle_graph, rmat, star_graph, to_undirected
from repro.partition import OutgoingEdgeCut


class TestCountingNeighbors:
    def test_counts_full_iteration(self):
        nbrs = CountingNeighbors(np.array([3, 1, 4]))
        assert list(nbrs) == [3, 1, 4]
        assert nbrs.count == 3

    def test_counts_partial_iteration_including_break_element(self):
        nbrs = CountingNeighbors(np.array([3, 1, 4, 1, 5]))
        for u in nbrs:
            if u == 4:
                break
        assert nbrs.count == 3

    def test_len(self):
        assert len(CountingNeighbors(np.array([1, 2]))) == 2

    def test_yields_python_ints(self):
        for u in CountingNeighbors(np.array([7], dtype=np.int64)):
            assert type(u) is int


class TestMakeEngine:
    def test_kinds(self, small_graph):
        for kind in ("gemini", "symple", "dgalois", "single"):
            engine = make_engine(kind, small_graph, num_machines=2)
            assert engine.kind == kind

    def test_unknown_kind_rejected(self, small_graph):
        with pytest.raises(EngineError):
            make_engine("spark", small_graph)

    def test_partition_override(self, small_graph):
        part = OutgoingEdgeCut().partition(small_graph, 3)
        engine = make_engine("gemini", part)
        assert engine.num_machines == 3

    def test_single_from_partition(self, small_graph):
        part = OutgoingEdgeCut().partition(small_graph, 3)
        engine = make_engine("single", part)
        assert engine.num_machines == 1

    def test_canonical_partitions(self, small_graph):
        assert (
            make_engine("gemini", small_graph, 4).partition.kind
            == "outgoing-edge-cut"
        )
        assert (
            make_engine("dgalois", small_graph, 4).partition.kind
            == "cartesian-vertex-cut"
        )


class TestActiveValidation:
    def test_wrong_dtype_rejected(self, small_graph):
        engine = make_engine("gemini", small_graph, 2)

        def signal(v, nbrs, s, emit):
            for u in nbrs:
                emit(u)
                break

        with pytest.raises(EngineError):
            engine.pull(
                signal,
                lambda v, x, s: False,
                engine.new_state(),
                np.ones(small_graph.num_vertices, dtype=np.int64),
            )

    def test_wrong_shape_rejected(self, small_graph):
        engine = make_engine("gemini", small_graph, 2)
        with pytest.raises(EngineError):
            engine.pull(
                lambda v, nbrs, s, emit: None,
                lambda v, x, s: False,
                engine.new_state(),
                np.ones(3, dtype=bool),
            )


class TestPushPhase:
    def test_push_traverses_frontier_out_edges(self):
        g = to_undirected(rmat(scale=7, edge_factor=5, seed=3))
        engine = make_engine("gemini", g, 3)
        s = engine.new_state()
        s.add_array("seen", bool, False)
        frontier = np.flatnonzero(g.out_degrees() > 0)[:10]

        result = engine.push(
            lambda u, v, s: u,
            lambda v, value, s: False,
            s,
            frontier,
        )
        expected = int(g.out_degrees()[frontier].sum())
        assert result.edges_traversed == expected

    def test_push_applies_slot_at_master(self):
        g = star_graph(6)
        engine = make_engine("gemini", g, 2)
        s = engine.new_state()
        s.add_array("hit", bool, False)

        def slot(v, value, s):
            s.hit[v] = True
            return True

        engine.push(lambda u, v, s: u, slot, s, np.array([0]))
        assert s.hit[1:].all()
        assert not s.hit[0]

    def test_push_counts_remote_update_bytes(self):
        g = cycle_graph(16)
        engine = make_engine("gemini", g, 4)
        s = engine.new_state()
        frontier = np.arange(16)
        engine.push(lambda u, v, s: u, lambda v, x, s: False, s, frontier,
                    update_bytes=8)
        # edges crossing chunk boundaries must be billed
        assert engine.counters.push_bytes > 0

    def test_push_none_means_no_update(self):
        g = cycle_graph(8)
        engine = make_engine("gemini", g, 2)
        s = engine.new_state()
        result = engine.push(
            lambda u, v, s: None, lambda v, x, s: True, s, np.arange(8)
        )
        assert result.updates_applied == 0
        assert engine.counters.push_bytes == 0

    def test_push_boolean_frontier_accepted(self):
        g = cycle_graph(8)
        engine = make_engine("gemini", g, 2)
        s = engine.new_state()
        frontier = np.zeros(8, dtype=bool)
        frontier[0] = True
        result = engine.push(
            lambda u, v, s: u, lambda v, x, s: False, s, frontier
        )
        assert result.edges_traversed == 2


class TestSyncAccounting:
    def test_sync_counts_replica_holders(self):
        g = star_graph(12)  # hub 0 has in-edges everywhere
        part = OutgoingEdgeCut().partition(g, 4)
        engine = GeminiEngine(part)
        holders = sum(
            1
            for m in range(4)
            if part.local_in(m).degree(0) > 0 and part.master_of[0] != m
        )
        engine.sync_state(np.array([0]), sync_bytes=4)
        assert engine.counters.sync_bytes == 4 * holders

    def test_sync_empty_is_free(self, small_graph):
        engine = make_engine("gemini", small_graph, 4)
        engine.sync_state(np.array([], dtype=np.int64))
        assert engine.counters.sync_bytes == 0

    def test_sync_single_machine_free(self, small_graph):
        engine = make_engine("single", small_graph)
        engine.sync_state(np.arange(10))
        assert engine.counters.sync_bytes == 0

    def test_reset_metrics(self, small_graph):
        engine = make_engine("gemini", small_graph, 4)
        engine.sync_state(np.arange(20), sync_bytes=8)
        assert engine.counters.total_bytes > 0
        engine.reset_metrics()
        assert engine.counters.total_bytes == 0
        assert engine.counters.edges_traversed == 0


class TestVertexIndexValidation:
    """``push`` and ``sync_state`` take a vertex *set*: a bool mask over
    all vertices or integers within ``[0, n)``; duplicates collapse and
    anything else is a typed error (``pull`` already insists on a mask)."""

    @pytest.fixture
    def engine(self):
        g = to_undirected(rmat(scale=6, edge_factor=6, seed=3))
        return make_engine("gemini", g, 4)

    @staticmethod
    def call(engine, how, vertices):
        if how == "sync_state":
            return engine.sync_state(vertices, sync_bytes=4)
        s = engine.new_state()
        return engine.push(
            lambda u, v, s: u, lambda v, x, s: True, s, vertices
        )

    @staticmethod
    def books(engine):
        return engine.counters.summary(), engine.execution_time()

    @pytest.mark.parametrize("how", ["push", "sync_state"])
    def test_duplicates_book_once(self, engine, how):
        g = engine.graph
        u = int(np.argmax(g.out_degrees()))
        twin = make_engine("gemini", g, 4)
        self.call(engine, how, np.array([u, u, 3, u]))
        self.call(twin, how, np.array([3, u]))
        assert self.books(engine) == self.books(twin)
        assert engine.counters.total_bytes > 0

    @pytest.mark.parametrize("how", ["push", "sync_state"])
    @pytest.mark.parametrize(
        "bad",
        [
            lambda n: np.array([-1]),  # would wrap to the last vertex
            lambda n: np.array([n]),  # a raw IndexError before
            lambda n: np.array([1.5]),  # would truncate to 1
            lambda n: np.array([[0, 1]]),  # not 1-D
            lambda n: np.ones(n - 1, dtype=bool),  # mask of the wrong length
        ],
        ids=["negative", "past-the-end", "float", "2-d", "short-mask"],
    )
    def test_invalid_sets_raise_engine_error(self, engine, how, bad):
        with pytest.raises(EngineError):
            self.call(engine, how, bad(engine.graph.num_vertices))
        # rejected before the phase began: nothing was booked
        assert not engine.counters.iterations

    @pytest.mark.parametrize("how", ["push", "sync_state"])
    def test_valid_spellings_agree(self, engine, how):
        g = engine.graph
        n = g.num_vertices
        mask = np.zeros(n, dtype=bool)
        mask[[5, 2, 9]] = True
        books = []
        for vertices in (mask, np.array([9, 2, 5]), [5, 2, 9],
                         np.array([2, 5, 9], dtype=np.uint32)):
            fresh = make_engine("gemini", g, 4)
            self.call(fresh, how, vertices)
            books.append(self.books(fresh))
        assert all(b == books[0] for b in books)

    def test_empty_sets_are_free(self, engine):
        for empty in ([], np.array([], dtype=np.int64),
                      np.zeros(engine.graph.num_vertices, dtype=bool)):
            engine.sync_state(empty)
            assert self.call(engine, "push", empty).edges_traversed == 0
        assert engine.counters.total_bytes == 0

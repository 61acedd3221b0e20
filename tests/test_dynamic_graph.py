"""Dynamic graphs: mutation batches, delta overlays, partition refresh.

The contract under test: a :class:`DynamicGraph` that applied any batch
sequence must snapshot to exactly the graph a from-scratch build of the
surviving edge multiset produces, and an incrementally refreshed
partition must be bit-identical to :func:`partition_with_masters` on
the same (graph, frozen masters) — local adjacency, ownership arrays,
and dependency bitmaps included.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, PartitionError
from repro.graph import (
    CSRGraph,
    DynamicGraph,
    MutationBatch,
    erdos_renyi,
    to_undirected,
)
from repro.graph.generators import random_weights
from repro.obs import ObsHub, Tracer, validate_events
from repro.partition import (
    IncomingEdgeCut,
    OutgoingEdgeCut,
    circulant_cells,
    partition_with_masters,
    refresh_partition,
)
from repro.partition.vertex_cut import HashVertexCut


@pytest.fixture()
def graph():
    return to_undirected(erdos_renyi(48, 180, seed=5))


def edge_multiset(g):
    src, dst = g.edge_array()
    pairs = {}
    for u, v in zip(src.tolist(), dst.tolist()):
        pairs[(u, v)] = pairs.get((u, v), 0) + 1
    return pairs


class TestMutationBatch:
    def test_endpoints_must_parallel(self):
        with pytest.raises(GraphError):
            MutationBatch(insert_src=[1, 2], insert_dst=[3])
        with pytest.raises(GraphError):
            MutationBatch(delete_src=[1], delete_dst=[])

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphError):
            MutationBatch(insert_src=[-1], insert_dst=[0])

    def test_negative_add_vertices_rejected(self):
        with pytest.raises(GraphError):
            MutationBatch(add_vertices=-1)

    def test_weights_must_parallel(self):
        with pytest.raises(GraphError):
            MutationBatch(insert_src=[0], insert_dst=[1],
                          insert_weights=[0.5, 0.7])

    def test_helpers_and_inspection(self):
        b = MutationBatch.inserts([(0, 1), (2, 3)])
        assert (b.num_inserts, b.num_deletes, b.empty) == (2, 0, False)
        d = MutationBatch.deletes([(4, 5)])
        assert (d.num_inserts, d.num_deletes) == (0, 1)
        assert MutationBatch().empty
        assert b.touched_vertices().tolist() == [0, 1, 2, 3]

    def test_dict_round_trip(self):
        b = MutationBatch(insert_src=[0, 1], insert_dst=[1, 2],
                          insert_weights=[0.5, 0.25],
                          delete_src=[3], delete_dst=[4], add_vertices=2)
        r = MutationBatch.from_dict(b.to_dict())
        assert np.array_equal(r.insert_src, b.insert_src)
        assert np.array_equal(r.insert_weights, b.insert_weights)
        assert np.array_equal(r.delete_dst, b.delete_dst)
        assert r.add_vertices == 2

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(GraphError):
            MutationBatch.from_dict({"inserts": [[1]]})
        with pytest.raises(GraphError):
            MutationBatch.from_dict({"inserts": [[1, 2], [1, 2, 0.5]]})
        with pytest.raises(GraphError):
            MutationBatch.from_dict({"frobnicate": 1})
        with pytest.raises(GraphError):
            MutationBatch.from_dict({"deletes": [[1, 2, 3]]})


class TestDynamicGraph:
    def test_insert_then_snapshot(self, graph):
        dyn = DynamicGraph(graph)
        stats = dyn.apply(MutationBatch.inserts([(0, 47), (47, 0)]))
        assert stats.version == dyn.version == 1
        assert stats.num_edges == graph.num_edges + 2
        snap = dyn.snapshot()
        assert snap.has_edge(0, 47) and snap.has_edge(47, 0)

    def test_snapshot_identity_cached_per_version(self, graph):
        dyn = DynamicGraph(graph)
        assert dyn.snapshot() is dyn.snapshot()
        dyn.apply(MutationBatch.inserts([(1, 2)]))
        s1 = dyn.snapshot()
        assert s1 is dyn.snapshot()

    def test_delete_removes_every_live_copy(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 1), (1, 2)])
        dyn = DynamicGraph(g)
        stats = dyn.apply(MutationBatch.deletes([(0, 1)]))
        assert stats.removed_copies == 2
        assert edge_multiset(dyn.snapshot()) == {(1, 2): 1}

    def test_delete_absent_edge_is_atomic(self, graph):
        dyn = DynamicGraph(graph)
        before = edge_multiset(dyn.snapshot())
        bad = MutationBatch(insert_src=[0], insert_dst=[1],
                            delete_src=[0], delete_dst=[0])
        if not graph.has_edge(0, 0):
            with pytest.raises(GraphError, match="absent edge"):
                dyn.apply(bad)
        assert dyn.version == 0
        assert edge_multiset(dyn.snapshot()) == before

    def test_delete_sees_pre_batch_edges_only(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        dyn = DynamicGraph(g)
        # insert (1, 2) and delete (1, 2) in one batch: the delete runs
        # against the pre-batch set, so it must fail atomically
        with pytest.raises(GraphError, match="absent edge"):
            dyn.apply(MutationBatch(insert_src=[1], insert_dst=[2],
                                    delete_src=[1], delete_dst=[2]))

    def test_delete_insert_log_edge(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        dyn = DynamicGraph(g, compact_min=10**9)
        dyn.apply(MutationBatch.inserts([(1, 2), (1, 2)]))
        stats = dyn.apply(MutationBatch.deletes([(1, 2)]))
        assert stats.removed_copies == 2
        assert edge_multiset(dyn.snapshot()) == {(0, 1): 1}

    def test_out_of_range_endpoints_rejected(self, graph):
        dyn = DynamicGraph(graph)
        n = graph.num_vertices
        with pytest.raises(GraphError, match="out of range"):
            dyn.apply(MutationBatch.inserts([(0, n)]))
        # but in range once add_vertices covers it
        dyn.apply(MutationBatch(insert_src=[0], insert_dst=[n],
                                add_vertices=1))
        assert dyn.num_vertices == n + 1

    def test_weight_consistency_enforced(self, graph):
        weighted = random_weights(graph, seed=1)
        dyn_w = DynamicGraph(weighted)
        with pytest.raises(GraphError, match="must carry weights"):
            dyn_w.apply(MutationBatch.inserts([(0, 1)]))
        dyn_w.apply(MutationBatch.inserts([(0, 1)], weights=[0.5]))
        dyn_u = DynamicGraph(graph)
        with pytest.raises(GraphError, match="must not carry weights"):
            dyn_u.apply(MutationBatch.inserts([(0, 1)], weights=[0.5]))

    def test_weighted_snapshot_preserves_weights(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.5, 0.25])
        dyn = DynamicGraph(g, compact_min=10**9)
        dyn.apply(MutationBatch.inserts([(2, 0)], weights=[0.125]))
        dyn.apply(MutationBatch.deletes([(0, 1)]))
        snap = dyn.snapshot()
        assert snap.is_weighted
        assert snap.out_edge_weights(1).tolist() == [0.25]
        assert snap.out_edge_weights(2).tolist() == [0.125]

    def test_compaction_folds_overlay(self, graph):
        dyn = DynamicGraph(graph, compact_ratio=0.0, compact_min=0)
        stats = dyn.apply(MutationBatch.inserts([(0, 1)]))
        assert stats.compacted
        assert dyn.compactions == 1
        assert dyn.overlay_edges == 0
        assert dyn.base.num_edges == graph.num_edges + 1

    def test_compaction_equivalent_to_overlay(self, graph):
        eager = DynamicGraph(graph, compact_ratio=0.0, compact_min=0)
        lazy = DynamicGraph(graph, compact_min=10**9)
        src, dst = graph.edge_array()
        batches = [
            MutationBatch.inserts([(3, 9), (9, 3)]),
            MutationBatch.deletes([(int(src[0]), int(dst[0]))]),
            MutationBatch(insert_src=[48], insert_dst=[0], add_vertices=1),
        ]
        for b in batches:
            eager.apply(b)
            lazy.apply(b)
        assert lazy.compactions == 0 and eager.compactions == 3
        assert edge_multiset(eager.snapshot()) == \
            edge_multiset(lazy.snapshot())
        assert eager.num_vertices == lazy.num_vertices

    def test_versioning_and_history(self, graph):
        dyn = DynamicGraph(graph)
        b1 = MutationBatch.inserts([(0, 1)])
        b2 = MutationBatch.inserts([(1, 2)])
        dyn.apply(b1)
        dyn.apply(b2)
        assert [v for v, _ in dyn.batches_since(0)] == [1, 2]
        assert [b for _, b in dyn.batches_since(1)] == [b2]
        assert dyn.batches_since(2) == []
        assert dyn.batches_since(3) is None
        assert dyn.batches_since(-1) is None

    def test_apply_rejects_non_batch(self, graph):
        with pytest.raises(GraphError, match="MutationBatch"):
            DynamicGraph(graph).apply({"inserts": []})


class TestCirculantCells:
    def test_inverse_of_circulant_partition(self):
        # machine m reaches destination partition j at step (j-m-1) % p
        p = 4
        owners = np.array([0, 0, 2, 3])
        dst_masters = np.array([1, 3, 2, 0])
        cells = circulant_cells(owners, dst_masters, p)
        assert cells == sorted(cells)
        for m, s in cells:
            j = (m + s + 1) % p
            assert (m, j) in set(zip(owners.tolist(), dst_masters.tolist()))

    def test_deduplicates(self):
        cells = circulant_cells(
            np.array([1, 1, 1]), np.array([2, 2, 2]), 4
        )
        assert cells == [(1, 0)]

    def test_empty(self):
        assert circulant_cells(np.empty(0), np.empty(0), 4) == []


class TestRefreshPartition:
    @pytest.mark.parametrize("cut,kind", [
        (OutgoingEdgeCut(), "outgoing-edge-cut"),
        (IncomingEdgeCut(), "incoming-edge-cut"),
    ])
    def test_matches_from_scratch(self, graph, cut, kind):
        part = cut.partition(graph, 4)
        dyn = DynamicGraph(graph, compact_min=10**9)
        src, dst = graph.edge_array()
        batch = MutationBatch(
            insert_src=[0, 11, 48], insert_dst=[11, 0, 1],
            delete_src=[int(src[4]), int(dst[4])],
            delete_dst=[int(dst[4]), int(src[4])],
            add_vertices=1,
        )
        dyn.apply(batch)
        snap = dyn.snapshot()
        new_part, stats = refresh_partition(part, snap, batch)
        ref = partition_with_masters(snap, new_part.master_of, kind, 4)
        assert np.array_equal(new_part.master_of, ref.master_of)
        assert np.array_equal(new_part.in_edge_owner, ref.in_edge_owner)
        assert np.array_equal(new_part.out_edge_owner, ref.out_edge_owner)
        for m in range(4):
            for side in ("_local_in", "_local_out"):
                got = getattr(new_part, side)[m]
                want = getattr(ref, side)[m]
                assert np.array_equal(got.indptr, want.indptr), (m, side)
                assert np.array_equal(got.indices, want.indices), (m, side)
        assert np.array_equal(new_part._has_in, ref._has_in)
        assert np.array_equal(new_part._has_out, ref._has_out)
        assert stats.added_vertices == 1
        assert stats.kind == kind

    def test_untouched_machines_reuse_objects(self, graph):
        """No add_vertices: untouched machines keep the identical
        LocalAdjacency objects — zero rebuild cost."""
        part = OutgoingEdgeCut().partition(graph, 4)
        # a vertex mastered by machine 0 under outgoing-edge-cut
        v = int(np.flatnonzero(part.master_of == 0)[0])
        w = int(graph.out_neighbors(v)[0])
        batch = MutationBatch.deletes([(v, w)])
        dyn = DynamicGraph(graph, compact_min=10**9)
        dyn.apply(batch)
        new_part, stats = refresh_partition(part, dyn.snapshot(), batch)
        assert stats.touched_machines == [0]
        assert stats.reused_machines == 3
        for m in range(1, 4):
            assert new_part._local_in[m] is part._local_in[m]
            assert new_part._local_out[m] is part._local_out[m]

    def test_schedule_cells_partial(self, graph):
        part = OutgoingEdgeCut().partition(graph, 4)
        v = int(np.flatnonzero(part.master_of == 1)[0])
        w = int(graph.out_neighbors(v)[0])
        batch = MutationBatch.deletes([(v, w)])
        dyn = DynamicGraph(graph, compact_min=10**9)
        dyn.apply(batch)
        _, stats = refresh_partition(part, dyn.snapshot(), batch)
        # one mutated edge dirties exactly one circulant cell
        assert stats.schedule_cells == 1
        assert stats.total_cells == 16
        (m, s), = stats.cells
        assert m == 1
        assert (m + s + 1) % 4 == int(part.master_of[w])

    def test_unsupported_kind_raises(self, graph):
        part = HashVertexCut().partition(graph, 4)
        batch = MutationBatch.inserts([(0, 1)])
        dyn = DynamicGraph(graph, compact_min=10**9)
        dyn.apply(batch)
        with pytest.raises(PartitionError, match="incremental"):
            refresh_partition(part, dyn.snapshot(), batch)

    def test_wrong_snapshot_rejected(self, graph):
        part = OutgoingEdgeCut().partition(graph, 4)
        batch = MutationBatch(insert_src=[0], insert_dst=[1],
                              add_vertices=3)
        with pytest.raises(PartitionError, match="post-batch"):
            refresh_partition(part, graph, batch)


class TestMutationObservability:
    def test_events_and_counters(self, graph):
        from repro.api import Session

        hub = ObsHub(tracer=Tracer())
        with Session(graph) as session:
            session.run(algorithm="bfs", machines=4, bfs_roots=1)
            session.mutate(
                MutationBatch.inserts([(0, 40), (40, 0)]), obs=hub
            )
        events = [e for e in hub.tracer.events
                  if e["kind"].startswith(("mutation_", "partition_"))]
        kinds = [e["kind"] for e in events]
        assert "mutation_apply" in kinds
        assert "partition_refresh" in kinds
        assert validate_events(hub.tracer.events) == []
        apply_event = next(e for e in events
                           if e["kind"] == "mutation_apply")
        assert apply_event["graph_version"] == 1
        assert apply_event["inserts"] == 2
        refresh_event = next(e for e in events
                             if e["kind"] == "partition_refresh")
        assert refresh_event["machines"] == 4
        assert 0 < refresh_event["schedule_cells"] <= 16
        assert hub.metrics.counter(
            "repro_mutations_total", "mutation batches applied"
        ).value() == 1
        assert hub.metrics.counter(
            "repro_mutated_edges_total", "edges inserted or deleted",
            labels=("op",),
        ).value(op="insert") == 2

    def test_compaction_event(self, graph):
        from repro.api import Session
        from repro.graph.dynamic import DynamicGraph as DG

        hub = ObsHub(tracer=Tracer())
        dyn = DG(graph, compact_ratio=0.0, compact_min=0)
        with Session(dyn) as session:
            session.mutate(MutationBatch.inserts([(0, 1)]), obs=hub)
        kinds = [e["kind"] for e in hub.tracer.events]
        assert "mutation_compact" in kinds
        assert validate_events(hub.tracer.events) == []


# -- the write path patches rows ----------------------------------------------

CUTS = {
    "outgoing-edge-cut": OutgoingEdgeCut(),
    "incoming-edge-cut": IncomingEdgeCut(),
}
WEIGHTS = (0.25, 0.5, 1.0, 2.0)


class LiveEdges:
    """Reference model: the live edge list a snapshot is built from —
    the base's edges in out order, each batch deleting every copy of
    its pairs and appending its inserts."""

    def __init__(self, graph):
        self.n = graph.num_vertices
        self.src, self.dst = graph.edge_array()
        self.w = graph.out_weights

    def apply(self, batch):
        self.n += batch.add_vertices
        dead = set(zip(batch.delete_src.tolist(), batch.delete_dst.tolist()))
        keep = np.array(
            [pair not in dead
             for pair in zip(self.src.tolist(), self.dst.tolist())],
            dtype=bool,
        )
        self.src = np.concatenate([self.src[keep], batch.insert_src])
        self.dst = np.concatenate([self.dst[keep], batch.insert_dst])
        if self.w is not None:
            self.w = np.concatenate([self.w[keep], batch.insert_weights])

    def pairs(self):
        return sorted(set(zip(self.src.tolist(), self.dst.tolist())))

    def graph(self):
        return CSRGraph(self.n, self.src, self.dst, self.w)


def assert_same_array(got, want, what):
    if want is None:
        assert got is None, what
        return
    assert got.dtype == want.dtype, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_graph(got, want):
    assert (got.num_vertices, got.num_edges) == \
        (want.num_vertices, want.num_edges)
    for name in ("out_indptr", "out_indices", "out_weights",
                 "in_indptr", "in_indices", "in_weights"):
        assert_same_array(getattr(got, name), getattr(want, name), name)


def assert_same_partition(got, want):
    for name in ("master_of", "in_edge_owner", "out_edge_owner",
                 "_has_in", "_has_out"):
        assert_same_array(getattr(got, name), getattr(want, name), name)
    for m in range(want.num_machines):
        for side in ("_local_in", "_local_out"):
            a, b = getattr(got, side)[m], getattr(want, side)[m]
            for name in ("indptr", "indices", "weights"):
                assert_same_array(getattr(a, name), getattr(b, name),
                                  (m, side, name))


def draw_batch(data, model, weighted):
    grow = data.draw(st.integers(0, 2), label="add_vertices")
    n = model.n + grow
    live = model.pairs()
    dels = data.draw(
        st.lists(st.sampled_from(live), unique=True, max_size=4)
        if live else st.just([]),
        label="deletes",
    )
    ins = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5,
    ), label="inserts")
    if dels and data.draw(st.booleans(), label="re-insert a deleted pair"):
        ins.append(dels[0])
    weights = None
    if weighted:
        weights = [data.draw(st.sampled_from(WEIGHTS)) for _ in ins]
    return MutationBatch(
        insert_src=[u for u, _ in ins], insert_dst=[v for _, v in ins],
        insert_weights=weights,
        delete_src=[u for u, _ in dels], delete_dst=[v for _, v in dels],
        add_vertices=grow,
    )


def random_base(rng, n, m, weighted):
    """Unsorted, with parallel weighted edges and self-loops."""
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    weights = rng.choice(WEIGHTS, m) if weighted else None
    return CSRGraph(n, src, dst, weights)


class TestPatchEqualsBuild:
    """Every snapshot and every refreshed partition is byte-identical to
    a full build — patched, never re-sorted."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_drawn_schedules(self, data):
        n = data.draw(st.integers(1, 7), label="n")
        weighted = data.draw(st.booleans(), label="weighted")
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from(WEIGHTS)),
            max_size=24,
        ), label="base edges")
        if data.draw(st.booleans(), label="base list sorted"):
            edges.sort(key=lambda e: e[0])
        base = CSRGraph(
            n,
            np.array([u for u, _, _ in edges], dtype=np.int64),
            np.array([v for _, v, _ in edges], dtype=np.int64),
            [w for _, _, w in edges] if weighted else None,
        )
        p = data.draw(st.integers(1, 3), label="machines")
        model = LiveEdges(base)
        eager = DynamicGraph(base, compact_min=10**9)
        lazy = DynamicGraph(base, compact_min=10**9)
        parts = {kind: cut.partition(base, p) for kind, cut in CUTS.items()}
        for _ in range(data.draw(st.integers(1, 6), label="batches")):
            batch = draw_batch(data, model, weighted)
            model.apply(batch)
            want = model.graph()
            eager.apply(batch)
            snap = eager.snapshot()
            assert_same_graph(snap, want)
            for kind, part in parts.items():
                part, _ = refresh_partition(part, snap, batch)
                assert_same_partition(part, partition_with_masters(
                    snap, part.master_of, kind, p
                ))
                parts[kind] = part
            lazy.apply(batch)
            # several batches between snapshot() calls otherwise
            if data.draw(st.booleans(), label="lazy snapshot"):
                assert_same_graph(lazy.snapshot(), want)
            if data.draw(st.booleans(), label="compact"):
                eager.compact()
                lazy.compact()
            assert eager.num_edges == lazy.num_edges == want.num_edges
        assert_same_graph(lazy.snapshot(), model.graph())

    @pytest.mark.parametrize("weighted", [False, True])
    def test_unsorted_base_first_snapshot(self, weighted):
        """A base built from an unsorted list lists its in-rows in list
        order; the first snapshot must still be the build from the
        out-order list, and so must the refreshed partition."""
        rng = np.random.default_rng(3)
        base = random_base(rng, 50, 400, weighted)
        model = LiveEdges(base)
        dyn = DynamicGraph(base)
        parts = {kind: cut.partition(base, 4) for kind, cut in CUTS.items()}
        src, dst = base.edge_array()
        batch = MutationBatch(
            insert_src=[3, 49, 7], insert_dst=[11, 0, 7],
            insert_weights=[0.5, 2.0, 1.0] if weighted else None,
            delete_src=[int(src[9])], delete_dst=[int(dst[9])],
        )
        model.apply(batch)
        dyn.apply(batch)
        snap = dyn.snapshot()
        assert_same_graph(snap, model.graph())
        for kind, part in parts.items():
            new_part, stats = refresh_partition(part, snap, batch)
            assert_same_partition(new_part, partition_with_masters(
                snap, new_part.master_of, kind, 4
            ))
            assert stats.reused_machines == 0  # every machine rebuilt

    def test_compaction_leaves_snapshots_alone(self, graph):
        """Compaction is overlay bookkeeping: the snapshot after it is
        the same patch a never-compacting graph takes."""
        eager = DynamicGraph(graph, compact_ratio=0.0, compact_min=0)
        lazy = DynamicGraph(graph, compact_min=10**9)
        model = LiveEdges(graph)
        part = OutgoingEdgeCut().partition(graph, 4)
        for batch in (
            MutationBatch.inserts([(47, 5), (0, 5), (3, 5)]),
            MutationBatch.inserts([(20, 30)]),
            MutationBatch(delete_src=[0], delete_dst=[5],
                          insert_src=[1], insert_dst=[5]),
        ):
            model.apply(batch)
            assert eager.apply(batch).compacted
            lazy.apply(batch)
            snap = eager.snapshot()
            assert_same_graph(snap, model.graph())
            assert_same_graph(lazy.snapshot(), snap)
            part, _ = refresh_partition(part, snap, batch)
            assert_same_partition(part, partition_with_masters(
                snap, part.master_of, "outgoing-edge-cut", 4
            ))

    def test_canonical_base_is_patched(self, graph):
        dyn = DynamicGraph(graph)
        dyn.apply(MutationBatch.inserts([(0, 1)]))
        snap = dyn.snapshot()
        assert snap.patched_from is graph
        # the weak patch parent does not travel through pickle
        copy = pickle.loads(pickle.dumps(snap))
        assert copy.patched_from is None
        assert_same_graph(copy, snap)

    def test_no_rebuild_on_the_write_path(self, graph, monkeypatch):
        """A canonical base and a cached partition: three mutations
        sort no CSR and restrict no machine adjacency."""
        import repro.graph.csr as csr_mod
        import repro.partition.base as base_mod
        from repro.api import Session

        def refuse(*args, **kwargs):
            raise AssertionError("the write path rebuilt a CSR")

        batches = [
            MutationBatch.inserts([(0, 40), (40, 0)]),
            MutationBatch(delete_src=[0, 40], delete_dst=[40, 0],
                          insert_src=[48], insert_dst=[2], add_vertices=1),
            MutationBatch.deletes([(int(u), 1) for u in graph.in_neighbors(1)]),
        ]
        with Session(graph) as session:
            session.run(algorithm="bfs", machines=4, bfs_roots=1)
            monkeypatch.setattr(csr_mod, "_build_csr", refuse)
            monkeypatch.setattr(base_mod, "_restrict_csr", refuse)
            for batch in batches:
                session.mutate(batch)
            (part,) = session._partitions.values()
            monkeypatch.undo()
            snap = session.graph
            assert_same_partition(part, partition_with_masters(
                snap, part.master_of, part.kind, 4
            ))
        model = LiveEdges(graph)
        for batch in batches:
            model.apply(batch)
        assert_same_graph(snap, model.graph())


class TestResolveDeletes:
    """Deletes resolve in one vectorised pass, with the loop's semantics."""

    def test_error_names_first_absent_pair(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        dyn = DynamicGraph(g)
        with pytest.raises(GraphError, match=r"absent edge \(3, 0\)"):
            dyn.apply(MutationBatch.deletes([(0, 1), (3, 0), (2, 1)]))

    def test_repeated_pair_raises_at_its_second_naming(self):
        g = CSRGraph.from_edges(4, [(0, 1), (0, 1), (1, 2)])
        dyn = DynamicGraph(g)
        with pytest.raises(GraphError, match=r"absent edge \(0, 1\)"):
            dyn.apply(MutationBatch.deletes([(0, 1), (1, 2), (0, 1), (3, 3)]))

    def test_failed_batch_commits_nothing(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2)])
        dyn = DynamicGraph(g, compact_min=10**9)
        dyn.apply(MutationBatch.inserts([(2, 3), (2, 3)]))
        snap = dyn.snapshot()
        before = (dyn.version, dyn.num_vertices, dyn.num_edges,
                  dyn.overlay_edges)
        with pytest.raises(GraphError, match=r"absent edge \(3, 2\)"):
            dyn.apply(MutationBatch(
                delete_src=[2, 0, 3], delete_dst=[3, 1, 2],
                insert_src=[0], insert_dst=[3], add_vertices=1,
            ))
        assert (dyn.version, dyn.num_vertices, dyn.num_edges,
                dyn.overlay_edges) == before
        assert dyn.snapshot() is snap
        stats = dyn.apply(MutationBatch.deletes([(2, 3), (0, 1)]))
        assert stats.removed_copies == 3
        assert edge_multiset(dyn.snapshot()) == {(1, 2): 1}

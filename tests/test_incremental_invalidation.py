"""The one invalidation against its oracle.

``incremental._unsupported`` judges support level by level in array
passes; the heap-ordered, one-vertex-at-a-time Ramalingam–Reps walk it
replaced lives here as the reference.  Hypothesis draws small directed
and symmetric multigraphs (self-loops, parallel edges, isolated and
zero-in-degree vertices, several components, vertex growth) and random
delete sets, and asserts

* for BFS (``group=None``, ``level=depth``) the two return exactly the
  same mask, which is what keeps every pinned incremental-BFS row;
* for CC that ``_levels`` equals a per-component reference BFS, and
  that the mask over ``(label, level)`` is sound: every vertex whose
  scratch label on the post-delete graph differs from its old one is
  in it;
* that ``IncrementalCC``'s repaired levels (``_repair_levels``) equal
  ``_levels`` of the refreshed labels after every refresh of drawn
  mutation streams that merge components and split them at bridges,
  and that an incremental refresh never runs the whole-graph sweep.
"""

import heapq
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms.incremental as incremental
from repro.algorithms.incremental import (
    _INF, IncrementalCC, _levels, _unsupported,
)
from repro.api import RunConfig, Session
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import MutationBatch


def bfs_affected_oracle(graph, depth, seeds, root):
    """The heap walk: candidates in increasing old depth; one keeps its
    depth if a surviving, unaffected in-neighbour sits one level up."""
    affected = np.zeros(graph.num_vertices, dtype=bool)
    enqueued = np.zeros(graph.num_vertices, dtype=bool)
    heap = []
    for v in seeds:
        v = int(v)
        if v == root or depth[v] >= _INF or enqueued[v]:
            continue
        enqueued[v] = True
        heapq.heappush(heap, (int(depth[v]), v))
    while heap:
        d, w = heapq.heappop(heap)
        supported = False
        for u in graph.in_neighbors(w):
            u = int(u)
            if depth[u] == d - 1 and not affected[u]:
                supported = True
                break
        if supported:
            continue
        affected[w] = True
        for v in graph.out_neighbors(w):
            v = int(v)
            if v == root or enqueued[v] or depth[v] != d + 1:
                continue
            enqueued[v] = True
            heapq.heappush(heap, (d + 1, v))
    return affected


def reference_depths(graph, sources, allowed=None):
    """Hop counts from ``sources`` by a plain queue BFS, optionally
    confined to the vertices ``allowed`` marks."""
    depth = np.full(graph.num_vertices, _INF, dtype=np.int64)
    depth[list(sources)] = 0
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for w in graph.out_neighbors(u):
            w = int(w)
            if depth[w] == _INF and (allowed is None or allowed[w]):
                depth[w] = depth[u] + 1
                queue.append(w)
    return depth


def reference_labels(graph):
    """Minimum reaching vertex id, by relaxing edges to fixpoint."""
    label = np.arange(graph.num_vertices, dtype=np.int64)
    src, dst = graph.edge_array()
    while True:
        before = label.copy()
        np.minimum.at(label, dst, label[src])
        if np.array_equal(before, label):
            return label


@st.composite
def mutated_graphs(draw, inserts):
    """``(old graph, new graph, delete destinations)``: a small
    multigraph, and it again after deleting every copy of some of its
    edges, growing by up to two vertices and (``inserts``) gaining a few
    edges — the post-mutation graph an invalidation runs against."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    symmetric = draw(st.booleans())

    def both_ways(edges):
        return edges + [(b, a) for a, b in edges] if symmetric else edges

    edges = both_ways(pairs)
    live = sorted(set(pairs))
    doomed = set(both_ways(
        draw(st.lists(st.sampled_from(live), unique=True)) if live else []
    ))
    grown = n + draw(st.integers(0, 2))
    fresh = st.integers(0, grown - 1)
    added = both_ways(
        draw(st.lists(st.tuples(fresh, fresh), max_size=4)) if inserts else []
    )
    old = CSRGraph.from_edges(n, edges)
    new = CSRGraph.from_edges(
        grown, [e for e in edges if e not in doomed] + added
    )
    del_dst = np.unique(np.array([b for _, b in doomed], dtype=np.int64))
    return old, new, del_dst


def grow(values, fill):
    return np.concatenate([values, fill])


class TestBfsMaskIsTheOracles:
    @given(mutated_graphs(inserts=True), st.integers(0, 11))
    @settings(max_examples=300, deadline=None)
    def test_same_mask(self, drawn, root):
        old, new, del_dst = drawn
        root %= old.num_vertices
        depth = grow(
            reference_depths(old, [root]),
            np.full(new.num_vertices - old.num_vertices, _INF),
        )
        got = _unsupported(new, None, depth, del_dst)
        want = bfs_affected_oracle(new, depth, del_dst, root)
        assert got.tolist() == want.tolist()

    def test_zero_in_degree_candidate_is_unsupported(self):
        # 0 -> 1 -> 2 and 0 -> 3: deleting 0 -> 1 leaves 1 with no
        # in-edge at all, and 2 hangs off it alone
        new = CSRGraph.from_edges(4, [(1, 2), (0, 3)])
        depth = np.array([0, 1, 2, 1])
        mask = _unsupported(new, None, depth, np.array([1]))
        assert mask.tolist() == [False, True, True, False]

    def test_parallel_support_survives(self):
        # 2 is reached at depth 2 through 1 and through 3: losing one
        # parent is not losing support
        new = CSRGraph.from_edges(4, [(0, 1), (0, 3), (3, 2)])
        depth = np.array([0, 1, 2, 1])
        assert not _unsupported(new, None, depth, np.array([2])).any()

    def test_the_root_is_axiomatic(self):
        new = CSRGraph.from_edges(2, [(0, 1)])
        depth = np.array([0, 1])
        assert not _unsupported(new, None, depth, np.array([0])).any()


class TestCcLevelsAndSoundness:
    @given(mutated_graphs(inserts=False))
    @settings(max_examples=300, deadline=None)
    def test_levels_and_mask(self, drawn):
        old, new, del_dst = drawn
        label = reference_labels(old)
        level = _levels(old, label)
        for root in np.flatnonzero(label == np.arange(old.num_vertices)):
            members = label == root
            want = reference_depths(old, [int(root)], allowed=members)
            assert level[members].tolist() == want[members].tolist()
        extra = np.arange(old.num_vertices, new.num_vertices)
        mask = _unsupported(
            new, grow(label, extra), grow(level, np.zeros_like(extra)),
            del_dst,
        )
        moved = reference_labels(new) != grow(label, extra)
        assert not (moved & ~mask).any()

    def test_a_non_bridge_delete_invalidates_nothing(self):
        # a 4-cycle, symmetric: every vertex keeps a support when one
        # edge goes, where the old equality closure took the component
        ring = [(0, 1), (1, 2), (2, 3), (3, 0)]
        cut = [(a, b) for a, b in ring if {a, b} != {1, 2}]
        old = CSRGraph.from_edges(4, ring + [(b, a) for a, b in ring])
        new = CSRGraph.from_edges(4, cut + [(b, a) for a, b in cut])
        label = reference_labels(old)
        level = _levels(old, label)
        assert level.tolist() == [0, 1, 2, 1]
        assert not _unsupported(new, label, level, np.array([1, 2])).any()

    def test_support_must_share_the_label(self):
        # directed: 0 -> 2 <- 1 -> 3 -> 2.  Vertex 2 is labelled 0 at
        # level 1; once 0 -> 2 goes, its other level-0 in-neighbour
        # (vertex 1, its own component) is no support
        old = CSRGraph.from_edges(4, [(0, 2), (1, 2), (1, 3), (3, 2)])
        new = CSRGraph.from_edges(4, [(1, 2), (1, 3), (3, 2)])
        label = reference_labels(old)
        assert label.tolist() == [0, 1, 0, 1]
        level = _levels(old, label)
        assert level.tolist() == [0, 0, 1, 1]
        mask = _unsupported(new, label, level, np.array([2]))
        assert mask.tolist() == [False, False, True, False]


@st.composite
def cc_streams(draw):
    """``(graph, batches, refresh_after)``: a small multigraph
    (directed or symmetric, self-loops, parallel edges, isolated
    vertices) and 1-4 mutation batches valid against it.  A batch is
    random (inserts, deletes of live pairs, ``add_vertices``), a
    *merge* (one edge from a lower-labelled class into a higher one,
    which relabels what the higher one reaches) or a *split* (every
    copy of a bridge goes, so a class loses part of itself); a refresh
    follows each batch unless ``refresh_after`` says to wait for the
    next one."""
    symmetric = draw(st.booleans())
    n = draw(st.integers(1, 10))
    live = []  # the edge multiset, one entry per copy

    def both_ways(edges):
        if symmetric:
            edges = edges + [(b, a) for a, b in edges if a != b]
        return edges

    def pairs(limit, max_size):
        vertex = st.integers(0, limit - 1)
        return draw(st.lists(st.tuples(vertex, vertex), max_size=max_size))

    def labels():
        return reference_labels(CSRGraph.from_edges(n, live))

    def named(edges):
        # one name per live pair (per undirected pair when symmetric)
        return sorted({e for e in edges if not symmetric or e[0] <= e[1]})

    live += both_ways(pairs(n, 3 * n))
    graph = CSRGraph.from_edges(n, live)
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "merge", "split"]))
        grow, ins, dels = 0, [], []
        label = labels()
        if kind == "merge":
            joins = [(u, v) for u in range(n) for v in range(n)
                     if label[u] < label[v]]
            if joins:
                ins = [draw(st.sampled_from(joins))]
        elif kind == "split":
            bridges = []
            for edge in named(live):
                doomed = set(both_ways([edge]))
                rest = [e for e in live if e not in doomed]
                if not np.array_equal(
                    reference_labels(CSRGraph.from_edges(n, rest)), label
                ):
                    bridges.append(edge)
            if bridges:
                dels = [draw(st.sampled_from(bridges))]
        else:
            grow = draw(st.integers(0, 2))
            n += grow
            ins = pairs(n, 3)
            if live:
                dels = draw(st.lists(
                    st.sampled_from(named(live)), max_size=2, unique=True
                ))
        ins, dels = both_ways(ins), both_ways(dels)
        live = [e for e in live if e not in set(dels)] + ins
        batches.append(MutationBatch(
            insert_src=[a for a, _ in ins], insert_dst=[b for _, b in ins],
            delete_src=[a for a, _ in dels], delete_dst=[b for _, b in dels],
            add_vertices=grow,
        ))
    refresh_after = draw(
        st.lists(st.booleans(), min_size=len(batches), max_size=len(batches))
    )
    return graph, batches, refresh_after


class TestCcLevelRepair:
    @given(cc_streams(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_repaired_levels_are_the_sweeps(self, stream, machines):
        graph, batches, refresh_after = stream
        config = RunConfig(machines=machines, executor="serial")
        with Session(graph, config) as session:
            cc = IncrementalCC(session)
            cc.refresh()
            for i, batch in enumerate(batches):
                session.mutate(batch)
                if not refresh_after[i] and i + 1 < len(batches):
                    continue
                got = cc.refresh()
                assert got.mode == "incremental"
                snapshot, _ = session._graph_snapshot()
                assert got.values.tolist() == \
                    reference_labels(snapshot).tolist()
                assert cc._level.tolist() == \
                    _levels(snapshot, got.values).tolist()

    def test_a_merge_relabels_the_higher_class_as_a_whole(self):
        # paths 0-1-2 and 3-4-5, symmetric; 2 -> 3 both ways makes 0
        # the label of all six, and 3, 4, 5 sit 3, 4, 5 hops from it
        path = [(0, 1), (1, 2), (3, 4), (4, 5)]
        graph = CSRGraph.from_edges(6, path + [(b, a) for a, b in path])
        with Session(graph, RunConfig(machines=2)) as session:
            cc = IncrementalCC(session)
            assert cc.refresh().values.tolist() == [0, 0, 0, 3, 3, 3]
            assert cc._level.tolist() == [0, 1, 2, 0, 1, 2]
            session.mutate(MutationBatch.inserts([(2, 3), (3, 2)]))
            assert cc.refresh().values.tolist() == [0] * 6
            assert cc._level.tolist() == [0, 1, 2, 3, 4, 5]

    def test_a_shortcut_lowers_levels_downstream(self):
        # directed path 0 -> 1 -> 2 -> 3 -> 4; 0 -> 3 changes no label
        # but brings 3 and 4 two hops nearer
        path = [(0, 1), (1, 2), (2, 3), (3, 4)]
        with Session(CSRGraph.from_edges(5, path),
                     RunConfig(machines=2)) as session:
            cc = IncrementalCC(session)
            cc.refresh()
            assert cc._level.tolist() == [0, 1, 2, 3, 4]
            session.mutate(MutationBatch.inserts([(0, 3)]))
            assert cc.refresh().values.tolist() == [0] * 5
            assert cc._level.tolist() == [0, 1, 2, 1, 2]

    def test_incremental_refreshes_never_sweep(self, monkeypatch):
        """The whole-graph ``_levels`` runs for the scratch refresh
        only; an incremental refresh repairs the levels it can have
        changed."""
        calls = []
        sweep = incremental._levels

        def counted(graph, label):
            calls.append(graph.num_vertices)
            return sweep(graph, label)

        monkeypatch.setattr(incremental, "_levels", counted)
        ring = [(v, (v + 1) % 8) for v in range(8)]
        graph = CSRGraph.from_edges(8, ring + [(b, a) for a, b in ring])
        with Session(graph, RunConfig(machines=2)) as session:
            cc = IncrementalCC(session)
            assert cc.refresh().mode == "scratch"
            assert len(calls) == 1
            for batch in (
                MutationBatch.deletes([(2, 3), (3, 2)]),
                MutationBatch.inserts([(0, 4), (4, 0)]),
                MutationBatch(insert_src=[5, 8], insert_dst=[8, 5],
                              add_vertices=1),
            ):
                session.mutate(batch)
                assert cc.refresh().mode == "incremental"
        assert len(calls) == 1

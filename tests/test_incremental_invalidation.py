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
  in it.
"""

import heapq
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.incremental import _INF, _levels, _unsupported
from repro.graph.csr import CSRGraph


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

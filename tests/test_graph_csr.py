"""CSRGraph construction, adjacency, and degree invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.csr as csr
from repro.errors import GraphError
from repro.graph import CSRGraph
from repro.graph.csr import (
    find_pairs, sorted_unique, splice_rows, stable_order,
)


def build(n, edges, weights=None):
    return CSRGraph.from_edges(n, edges, weights)


class TestConstruction:
    def test_empty_graph(self):
        g = build(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_vertices_without_edges(self):
        g = build(5, [])
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.out_degree(4) == 0

    def test_single_edge(self):
        g = build(2, [(0, 1)])
        assert g.num_edges == 1
        assert list(g.out_neighbors(0)) == [1]
        assert list(g.in_neighbors(1)) == [0]

    def test_self_loop_allowed(self):
        g = build(1, [(0, 0)])
        assert g.out_degree(0) == 1
        assert g.in_degree(0) == 1

    def test_parallel_edges_kept(self):
        g = build(2, [(0, 1), (0, 1)])
        assert g.num_edges == 2
        assert g.out_degree(0) == 2

    def test_out_of_range_source_rejected(self):
        with pytest.raises(GraphError):
            build(2, [(2, 0)])

    def test_out_of_range_destination_rejected(self):
        with pytest.raises(GraphError):
            build(2, [(0, 2)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphError):
            build(2, [(-1, 0)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(-1, np.empty(0, np.int64), np.empty(0, np.int64))

    def test_mismatched_src_dst_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(3, np.array([0, 1]), np.array([1]))

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(3, [(0, 1, 2)])

    def test_weights_length_mismatch_rejected(self):
        with pytest.raises(GraphError):
            build(2, [(0, 1)], weights=[0.5, 0.7])

    @pytest.mark.parametrize("src", [
        [0.7, 1.2],
        ["0", "1"],
        [True, False],
        [0, True],
        np.array([0.0, 1.0]),
        np.array([True, False]),
        np.array(["0", "1"]),
    ], ids=["floats", "strings", "bools", "int-and-bool", "float-array",
            "bool-array", "string-array"])
    def test_non_integral_ids_rejected(self, src):
        """An id is never truncated or cast into range: (0.7, 1) is not
        the edge (0, 1)."""
        with pytest.raises(GraphError, match="integer"):
            CSRGraph(3, src, [1, 2])
        with pytest.raises(GraphError, match="integer"):
            CSRGraph(3, [1, 2], src)

    @pytest.mark.parametrize("edges", [
        [(0.5, 1)], [(0, 1.0)], [(True, 1)], [("0", 1)],
    ], ids=["float-src", "float-dst", "bool", "string"])
    def test_from_edges_rejects_non_integral_ids(self, edges):
        with pytest.raises(GraphError, match="integer"):
            CSRGraph.from_edges(3, edges)

    def test_integer_ids_of_any_width_accepted(self):
        g = CSRGraph(3, np.array([2, 0], np.int32), np.array([1, 2], np.uint8))
        assert g.out_indices.dtype == g.in_indices.dtype == np.int64
        assert list(g.edges()) == [(0, 2), (2, 1)]
        assert list(build(3, [(np.int64(2), 1)]).edges()) == [(2, 1)]

    def test_graph_never_aliases_the_callers_arrays(self):
        src, dst = np.array([0, 0, 1]), np.array([1, 2, 2])
        g = CSRGraph(3, src, dst)  # both directions already grouped
        for arr in (g.out_indices, g.in_indices):
            assert not np.shares_memory(arr, src)
            assert not np.shares_memory(arr, dst)


class TestAdjacency:
    def test_neighbors_sorted_by_construction_order(self):
        g = build(4, [(0, 3), (0, 1), (0, 2)])
        assert sorted(g.out_neighbors(0).tolist()) == [1, 2, 3]

    def test_in_out_duality(self):
        edges = [(0, 1), (1, 2), (2, 0), (0, 2)]
        g = build(3, edges)
        for u, v in edges:
            assert v in g.out_neighbors(u)
            assert u in g.in_neighbors(v)

    def test_edges_iterator_roundtrip(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        g = build(3, edges)
        assert sorted(g.edges()) == sorted(edges)

    def test_edge_array_matches_edges(self):
        edges = [(0, 2), (1, 0), (2, 1), (2, 0)]
        g = build(3, edges)
        src, dst = g.edge_array()
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(edges)

    def test_has_edge(self):
        g = build(3, [(0, 1)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_neighbor_query_out_of_range(self):
        g = build(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.out_neighbors(3)
        with pytest.raises(GraphError):
            g.in_neighbors(-1)


class TestDegrees:
    def test_degree_arrays(self):
        g = build(3, [(0, 1), (0, 2), (1, 2)])
        assert g.out_degrees().tolist() == [2, 1, 0]
        assert g.in_degrees().tolist() == [0, 1, 2]

    def test_degree_scalars_match_arrays(self):
        g = build(4, [(0, 1), (2, 1), (3, 1)])
        for v in range(4):
            assert g.out_degree(v) == g.out_degrees()[v]
            assert g.in_degree(v) == g.in_degrees()[v]

    def test_degree_sum_equals_edge_count(self):
        g = build(5, [(0, 1), (1, 2), (3, 4), (4, 0)])
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges


class TestWeights:
    def test_weighted_graph(self):
        g = build(2, [(0, 1)], weights=[2.5])
        assert g.is_weighted
        assert g.out_edge_weights(0).tolist() == [2.5]
        assert g.in_edge_weights(1).tolist() == [2.5]

    def test_unweighted_weight_access_raises(self):
        g = build(2, [(0, 1)])
        assert not g.is_weighted
        with pytest.raises(GraphError):
            g.out_edge_weights(0)

    def test_weights_follow_edges_through_sorting(self):
        g = build(3, [(2, 0), (0, 1), (1, 2)], weights=[0.3, 0.1, 0.2])
        # weight of edge (u, v) must stay attached to that edge
        assert g.out_edge_weights(2).tolist() == [0.3]
        assert g.out_edge_weights(0).tolist() == [0.1]
        assert g.in_edge_weights(0).tolist() == [0.3]


edge_lists = st.integers(2, 20).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=60,
        ),
    )
)


class TestProperties:
    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_in_out_edge_multisets_agree(self, data):
        n, edges = data
        g = build(n, edges)
        out_pairs = sorted(
            (u, v) for u in range(n) for v in g.out_neighbors(u).tolist()
        )
        in_pairs = sorted(
            (u, v) for v in range(n) for u in g.in_neighbors(v).tolist()
        )
        assert out_pairs == in_pairs == sorted(edges)

    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_indptr_monotone_and_complete(self, data):
        n, edges = data
        g = build(n, edges)
        assert np.all(np.diff(g.out_indptr) >= 0)
        assert np.all(np.diff(g.in_indptr) >= 0)
        assert g.out_indptr[-1] == len(edges)
        assert g.in_indptr[-1] == len(edges)


def argsort_oracle(keys):
    return np.argsort(keys, kind="stable")


class TestStableOrder:
    """``stable_order`` is ``np.argsort(kind="stable")``, or None for
    keys already in order."""

    @staticmethod
    def check(keys):
        keys = np.asarray(keys, dtype=np.int64)
        before = keys.copy()
        got = stable_order(keys)
        expected = argsort_oracle(keys)
        np.testing.assert_array_equal(keys, before)  # keys are not sorted
        if got is None:
            assert not (keys[1:] < keys[:-1]).any()
            np.testing.assert_array_equal(expected, np.arange(keys.size))
        else:
            assert (keys[1:] < keys[:-1]).any()
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("keys", [
        [],
        [5],
        [0, 1, 1, 2, 9],
        [7] * 10,
        list(range(20, 0, -1)),
        [3, 1, 3, 1, 0, 3, 1, 0, 0, 3],
        [300, 2, 300, 2, 1000, 0],
    ], ids=["empty", "single", "sorted", "all-equal", "reversed",
            "duplicate-heavy", "wide-keys"])
    def test_cases(self, keys):
        self.check(keys)

    @pytest.mark.parametrize("top", [2**61 - 1, 2**61])
    def test_both_sides_of_the_overflow_guard(self, top):
        """Four keys up to ``2**61 - 1`` still fit ``key << 2 | 3`` in
        int64; one more and the stable argsort takes over."""
        self.check([top, 0, top, 1])

    @given(st.one_of(
        st.lists(st.integers(0, 5), max_size=300),
        st.lists(st.integers(0, 2**16), max_size=300),
        st.lists(st.integers(0, 2**62), max_size=40),
    ))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_stable_argsort(self, keys):
        self.check(keys)


class TestSortedUnique:
    """``sorted_unique`` gives ``np.unique``'s values and dtype; an
    input already strictly ascending comes back as it is."""

    @staticmethod
    def check(values):
        before = values.copy()
        got = sorted_unique(values)
        want = np.unique(values)
        np.testing.assert_array_equal(values, before)  # input untouched
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        if not (values[1:] <= values[:-1]).any():
            assert got is values

    @pytest.mark.parametrize("values", [
        [], [4], [3] * 7, [0, 2, 5, 9], [9, 5, 2, 0], [1, 4, 1, 0, 4, 4],
    ], ids=["empty", "one", "all-duplicate", "ascending", "descending",
            "mixed"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_cases(self, values, dtype):
        self.check(np.asarray(values, dtype=dtype))

    @given(
        st.lists(st.integers(-2**31, 2**31 - 1), max_size=200),
        st.sampled_from([np.int64, np.int32]),
        st.sampled_from(["as drawn", "ascending", "descending"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_unique(self, values, dtype, arrange):
        values = np.asarray(values, dtype=dtype)
        if arrange != "as drawn":
            values = np.sort(values)
            values = values if arrange == "ascending" else values[::-1].copy()
        self.check(values)


def delete_then_insert(indptr, indices, weights, num_rows, deletes, inserts):
    """The oracle: the two-pass patch the splice replaced.  Every copy
    of each deleted ``(row, value)`` pair goes with ``np.delete``; the
    inserts then go with ``np.insert`` at their rows' ends, row-major
    in batch order."""
    ins_rows, ins_vals, ins_w = inserts
    kill = sorted({
        i for r, v in zip(*deletes) if r < indptr.size - 1
        for i in range(indptr[r], indptr[r + 1]) if indices[i] == v
    })
    rows_of_kills = np.searchsorted(indptr, kill, "right") - 1
    grown = np.bincount(ins_rows, minlength=num_rows)
    grown -= np.bincount(rows_of_kills, minlength=num_rows)
    indices = np.delete(indices, kill)
    if weights is not None:
        weights = np.delete(weights, kill)
    out_indptr = np.empty(num_rows + 1, dtype=np.int64)
    out_indptr[: indptr.size] = indptr
    out_indptr[indptr.size:] = indptr[-1]
    out_indptr[1:] += np.cumsum(grown)
    order = np.argsort(ins_rows, kind="stable")
    rows = ins_rows[order]
    ends = out_indptr[rows + 1] - np.searchsorted(rows, rows, "right")
    indices = np.insert(indices, ends, ins_vals[order])
    if weights is not None:
        weights = np.insert(weights, ends, ins_w[order])
    return out_indptr, indices, weights


def arrays(*values):
    return [np.asarray(v, dtype=np.int64) for v in values]


class TestSplice:
    """One search and one splice per array give the bytes of the
    delete-then-insert patch, chunked at any size."""

    @staticmethod
    def check(graph, deletes, inserts, num_rows=None, chunk=None):
        num_rows = graph.num_vertices if num_rows is None else num_rows
        csr_in = (graph.out_indptr, graph.out_indices, graph.out_weights)
        before = [None if a is None else a.copy() for a in csr_in]
        want = delete_then_insert(*csr_in, num_rows, deletes, inserts)
        kill, _ = find_pairs(graph.out_indptr, graph.out_indices, *deletes)
        saved = csr.SPLICE_CHUNK
        csr.SPLICE_CHUNK = chunk or saved
        try:
            got = splice_rows(*csr_in, num_rows, kill, inserts)
        finally:
            csr.SPLICE_CHUNK = saved
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if b is not None:
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
        for a, b in zip(csr_in, before):  # the inputs are not written
            assert (a is None) or a.tobytes() == b.tobytes()
        return got

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_delete_then_insert(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=30,
        ), label="edges")
        weights = None
        if data.draw(st.booleans(), label="weighted"):
            weights = [0.25 * (i + 1) for i in range(len(edges))]
        graph = build(n, edges, weights)
        num_rows = n + data.draw(st.integers(0, 2), label="appended rows")
        pairs = sorted(set(edges))
        dels = data.draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=4)
            if pairs else st.just([]), label="deletes",
        )
        ins = data.draw(st.lists(st.tuples(
            st.integers(0, num_rows - 1), st.integers(0, num_rows - 1),
        ), max_size=6), label="inserts")
        if dels and data.draw(st.booleans(), label="re-insert"):
            ins.append(dels[0])
        ins_w = None if weights is None else np.full(len(ins), 9.5)
        self.check(
            graph,
            tuple(arrays([u for u, _ in dels], [v for _, v in dels])),
            (*arrays([u for u, _ in ins], [v for _, v in ins]), ins_w),
            num_rows,
            chunk=data.draw(st.sampled_from([None, 1, 2, 3, 5])),
        )

    def test_empty_batch(self):
        graph = build(3, [(0, 1), (2, 0)])
        indptr, indices, _ = self.check(
            graph, tuple(arrays([], [])), (*arrays([], []), None)
        )
        assert indices is graph.out_indices  # nothing to write

    def test_kill_at_a_row_start_beside_an_insert_at_its_position(self):
        """Row 0 ends where row 1 starts: its insert and row 1's killed
        first entry share one old position."""
        graph = build(3, [(0, 2), (1, 0), (1, 2)], [0.5, 1.5, 2.5])
        _, indices, weights = self.check(
            graph, tuple(arrays([1], [0])),
            (*arrays([0], [1]), np.array([7.0])), chunk=1,
        )
        assert indices.tolist() == [2, 1, 2]
        assert weights.tolist() == [0.5, 7.0, 2.5]

    def test_every_copy_of_a_parallel_pair_goes_and_one_comes_back(self):
        graph = build(3, [(0, 1), (1, 2), (0, 1), (0, 2), (0, 1)])
        indptr, indices, _ = self.check(
            graph, tuple(arrays([0], [1])), (*arrays([0], [1]), None),
        )
        assert indices[indptr[0]:indptr[1]].tolist() == [2, 1]

    def test_weighted_appended_rows(self):
        graph = build(2, [(0, 1), (1, 0)], [1.0, 2.0])
        indptr, indices, weights = self.check(
            graph, tuple(arrays([1], [0])),
            (*arrays([3, 2, 3], [0, 3, 2]), np.array([3.0, 4.0, 5.0])),
            num_rows=4,
        )
        assert indptr.tolist() == [0, 1, 1, 2, 4]
        assert indices.tolist() == [1, 3, 0, 2]
        assert weights.tolist() == [1.0, 4.0, 3.0, 5.0]

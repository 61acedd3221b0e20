"""The per-machine adjacency against the mask restriction it replaced.

``_restrict_csr`` groups one CSR direction's edges by owner with one
stable sort; the reference below is the earlier build, one mask over
every edge per machine.  Both must give byte-identical
``LocalAdjacency`` arrays, mirror bitmaps and master order, for every
partitioner and for masters in any order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph import CSRGraph
from repro.partition import (
    CartesianVertexCut,
    HybridCut,
    IncomingEdgeCut,
    OutgoingEdgeCut,
    Partition,
    partition_with_masters,
)
from repro.partition.base import edge_cut_owners

STRATEGIES = [
    OutgoingEdgeCut(),
    IncomingEdgeCut(),
    HybridCut(threshold=3),
    CartesianVertexCut(),
]
EDGE_CUTS = ["outgoing-edge-cut", "incoming-edge-cut"]


def mask_restrict(indptr, indices, weights, owner, machine):
    """The reference: one mask over every edge, per machine."""
    n = indptr.size - 1
    mask = owner == machine
    rows = np.repeat(np.arange(n), np.diff(indptr))
    counts = np.bincount(rows[mask], minlength=n)
    local_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=local_indptr[1:])
    local_weights = weights[mask] if weights is not None else None
    return local_indptr, indices[mask], local_weights


def reference_owners(part):
    """Each edge's machine from its endpoints, in both CSR orders."""
    graph, master = part.graph, part.master_of
    ids = np.arange(graph.num_vertices)
    in_src, in_dst = graph.in_indices, np.repeat(ids, graph.in_degrees())
    out_src, out_dst = np.repeat(ids, graph.out_degrees()), graph.out_indices
    if part.kind == "outgoing-edge-cut":
        return master[in_src], master[out_src]
    if part.kind == "incoming-edge-cut":
        return master[in_dst], master[out_dst]
    return part.in_edge_owner, part.out_edge_owner  # stored by the cut


def same_bytes(got, expected):
    assert (got is None) == (expected is None)
    if expected is not None:
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def assert_matches_reference(part):
    graph = part.graph
    in_owner, out_owner = reference_owners(part)
    has = {}
    for direction, owner, csr in (
        ("in", in_owner, (graph.in_indptr, graph.in_indices,
                          graph.in_weights)),
        ("out", out_owner, (graph.out_indptr, graph.out_indices,
                            graph.out_weights)),
    ):
        local = part._local_in if direction == "in" else part._local_out
        assert len(local) == part.num_machines
        rows = []
        for m, adj in enumerate(local):
            indptr, indices, weights = mask_restrict(*csr, owner, m)
            same_bytes(adj.indptr, indptr)
            same_bytes(adj.indices, indices)
            same_bytes(adj.weights, weights)
            rows.append(np.diff(indptr) > 0)
        has[direction] = np.stack(rows)
    same_bytes(part._has_in, has["in"])
    same_bytes(part._has_out, has["out"])
    master_of = part.master_of
    ascending = bool((master_of[1:] >= master_of[:-1]).all())
    same_bytes(part._master_order, None if ascending else np.argsort(
        master_of, kind="stable"
    ))


@st.composite
def edge_lists(draw):
    """An unsorted edge list with multi-edges, self-loops, isolated
    vertices and (sometimes) weights."""
    n = draw(st.integers(1, 24))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=90,
    ))
    if pairs:  # repeated pairs: multi-edges
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    pairs.append((0, 0))  # a self-loop
    n += draw(st.integers(0, 3))  # isolated tail vertices
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        weights = np.arange(1, src.size + 1, dtype=np.float64) / 8
    return CSRGraph(n, src, dst, weights)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
@given(graph=edge_lists(), machines=st.sampled_from([1, 2, 3, 5, 8, 30]))
@settings(max_examples=40, deadline=None)
def test_partition_matches_the_mask_reference(strategy, graph, machines):
    """machines = 30 puts more machines than vertices."""
    assert_matches_reference(strategy.partition(graph, machines))


@pytest.mark.parametrize("kind", EDGE_CUTS)
@given(graph=edge_lists(), machines=st.sampled_from([2, 3, 7]),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_scattered_masters_match_the_mask_reference(kind, graph, machines,
                                                    seed):
    """Masters out of id order: neither direction's owners are grouped,
    and the master order is a real permutation."""
    rng = np.random.default_rng(seed)
    master_of = rng.integers(0, machines, graph.num_vertices)
    part = partition_with_masters(graph, master_of, kind, machines)
    assert_matches_reference(part)


def unsorted_weighted_graph():
    src = np.array([5, 0, 3, 5, 1, 0, 5, 2, 4, 0, 3, 3])
    dst = np.array([0, 5, 3, 1, 2, 5, 0, 0, 1, 2, 4, 3])
    return CSRGraph(7, src, dst, np.linspace(0.5, 6.0, src.size))


@pytest.mark.parametrize("strategy", [OutgoingEdgeCut(), IncomingEdgeCut()],
                         ids=lambda s: s.name)
def test_edge_cut_derives_its_owners_on_read(strategy):
    graph = unsorted_weighted_graph()
    part = strategy.partition(graph, 3)
    assert part._in_edge_owner is None and part._out_edge_owner is None
    in_owner, out_owner = edge_cut_owners(graph, part.master_of, part.kind)
    same_bytes(part.in_edge_owner, in_owner)
    same_bytes(part.out_edge_owner, out_owner)
    assert part._in_edge_owner is not None  # derived once, then kept
    part.validate()


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
@pytest.mark.parametrize("machines", [1, 3])
def test_local_adjacency_owns_its_arrays(strategy, machines):
    """A direction whose owners are grouped already (an edge cut's
    master side, masters in id order; every direction on one machine)
    gives each machine a slice of the graph's arrays, which
    ``Partition.graph`` holds anyway.  Every other direction owns its
    arrays, and no ``indptr`` is shared."""
    graph = unsorted_weighted_graph()
    part = strategy.partition(graph, machines)
    graph_arrays = [
        graph.in_indptr, graph.in_indices, graph.in_weights,
        graph.out_indptr, graph.out_indices, graph.out_weights,
    ]
    sliced = {}
    for direction, local, owner in (
        ("in", part._local_in, part.in_edge_owner),
        ("out", part._local_out, part.out_edge_owner),
    ):
        sliced[direction] = not (owner[1:] < owner[:-1]).any()
        for adj in local:
            for whole in graph_arrays:
                assert not np.shares_memory(adj.indptr, whole)
            for name in ("indices", "weights"):
                arr = getattr(adj, name)
                if sliced[direction]:
                    assert arr.base is getattr(graph, f"{direction}_{name}")
                else:
                    for whole in graph_arrays:
                        assert not np.shares_memory(arr, whole)
    if machines > 1 and strategy.name in EDGE_CUTS:
        master_side = "out" if strategy.name == "outgoing-edge-cut" else "in"
        assert sliced == {"in": master_side == "in",
                          "out": master_side == "out"}


def test_only_edge_cuts_derive_their_owners():
    graph = unsorted_weighted_graph()
    with pytest.raises(PartitionError, match="edge owners"):
        Partition(graph, np.zeros(7, dtype=np.int64), None, None,
                  kind="hash-vertex-cut")

"""Metamorphic gate for the dynamic-graph subsystem.

The hard invariant (ISSUE 9): after **every** mutation batch, the
incremental result must equal a from-scratch run on the equivalent
static graph — bit-identical, and identical across the serial and
process executors.  Hypothesis drives randomized mutation
schedules (symmetric inserts, deletes of live edges, vertex growth)
and checks the gate on every prefix, not just the final state; a
second strategy (:func:`streams`) leaves the one symmetric base graph
for directed and symmetric multigraphs, mixed insert+delete batches,
two batches between refreshes, 1-4 machines, both engines and both
executors.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunConfig, Session
from repro.algorithms import (
    IncrementalBFS,
    IncrementalCC,
    IncrementalKCore,
    kcore_peel,
)
from repro.algorithms.incremental import _levels, relax_depth_signal
from repro.analysis.kernelspec import FULL_SCAN_MIN
from repro.engine import SympleOptions
from repro.errors import GraphError
from repro.graph import (
    DynamicGraph,
    MutationBatch,
    erdos_renyi,
    rmat,
    to_undirected,
)
from repro.graph.csr import CSRGraph


def base_graph(seed=5, n=40, m=140):
    return to_undirected(erdos_renyi(n, m, seed=seed))


def serial_config():
    return RunConfig(machines=4, executor="serial", bfs_roots=1)


def random_schedule(graph, seed, steps, allow_grow=True):
    """A list of symmetric mutation batches valid against ``graph``.

    Tracks the live edge multiset so deletes always name live pairs and
    the graph stays symmetric (the shape the undirected algorithms and
    ``to_undirected``-built sessions assume).
    """
    rng = np.random.default_rng(seed)
    shadow = DynamicGraph(graph)
    batches = []
    for _ in range(steps):
        n = shadow.num_vertices
        op = rng.integers(0, 4 if allow_grow else 3)
        if op == 0 or op == 1:  # insert a symmetric pair
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                v = (u + 1) % n
            batch = MutationBatch.inserts([(u, v), (v, u)])
        elif op == 2:  # delete a live non-loop pair, both directions
            src, dst = shadow.snapshot().edge_array()
            off_diag = np.flatnonzero(src != dst)
            if off_diag.size == 0:
                continue
            e = int(off_diag[rng.integers(0, off_diag.size)])
            u, v = int(src[e]), int(dst[e])
            batch = MutationBatch.deletes([(u, v), (v, u)])
        else:  # grow: a fresh vertex wired to a random existing one
            u = int(rng.integers(0, n))
            batch = MutationBatch(
                insert_src=[u, n], insert_dst=[n, u], add_vertices=1
            )
        shadow.apply(batch)
        batches.append(batch)
    return batches


def scratch_digests(snapshot, config, root=0, k=3):
    """From-scratch reference digests on an equivalent static graph."""
    with Session(snapshot, config) as fresh:
        return (
            IncrementalBFS(fresh, root=root).refresh().digest(),
            IncrementalCC(fresh).refresh().digest(),
            IncrementalKCore(fresh, k=k).refresh().digest(),
        )


def refresh_metered(session, handle):
    """``handle.refresh()`` plus the engine it ran its phases on."""
    inner = session.engine_context
    engines = []

    @contextmanager
    def recording(*args, **kwargs):
        with inner(*args, **kwargs) as context:
            engines.append(context[0])
            yield context

    session.engine_context = recording
    try:
        return handle.refresh(), engines[-1]
    finally:
        del session.engine_context


@st.composite
def streams(draw):
    """``(graph, symmetric, rounds)``: a small multigraph (self-loops,
    parallel edges, isolated vertices) and a mutation stream valid
    against it.  A round is what happens between two refreshes: one
    batch or two, each mixing inserts (parallel copies included),
    deletes of live pairs and vertex growth; some two-batch rounds
    delete an edge and reinsert it, or insert one and delete it again.
    """
    symmetric = draw(st.booleans())
    n = draw(st.integers(2, 10))
    live = set()

    def both_ways(edges):
        edges = list(edges)
        if symmetric:
            edges += [(b, a) for a, b in edges if a != b]
        return edges

    def pairs(limit, **kwargs):
        vertex = st.integers(0, limit - 1)
        return st.lists(st.tuples(vertex, vertex), **kwargs)

    def deletable():
        # one name per undirected edge, so a mirrored delete list
        # never names a pair twice
        return sorted(e for e in live if not symmetric or e[0] <= e[1])

    def batch(must_insert=(), must_delete=()):
        nonlocal n
        grow = draw(st.integers(0, 1))
        n += grow
        ins = both_ways([*must_insert, *draw(pairs(n, max_size=3))])
        dels = set(must_delete)
        if live:
            dels |= set(draw(
                st.lists(st.sampled_from(deletable()), max_size=3)
            ))
        dels = both_ways(sorted(dels))
        live.difference_update(dels)
        live.update(ins)
        return MutationBatch(
            insert_src=[a for a, _ in ins], insert_dst=[b for _, b in ins],
            delete_src=[a for a, _ in dels], delete_dst=[b for _, b in dels],
            add_vertices=grow,
        )

    base = both_ways(draw(pairs(n, max_size=3 * n)))
    graph = CSRGraph.from_edges(n, base)
    live.update(base)
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["one", "two", "delete-reinsert", "insert-delete"]
        ))
        if kind == "delete-reinsert" and live:
            edge = draw(st.sampled_from(deletable()))
            rounds.append(
                [batch(must_delete=[edge]), batch(must_insert=[edge])]
            )
        elif kind == "insert-delete":
            (edge,) = draw(pairs(n, min_size=1, max_size=1))
            edge = tuple(sorted(edge))
            rounds.append(
                [batch(must_insert=[edge]), batch(must_delete=[edge])]
            )
        else:
            rounds.append([batch() for _ in range(1 + (kind == "two"))])
    return graph, symmetric, rounds


class TestEveryPrefixEqualsScratch:
    @given(st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_hypothesis_schedules(self, seed):
        graph = base_graph(seed=seed % 7)
        batches = random_schedule(graph, seed, steps=4)
        config = serial_config()
        with Session(graph, config) as session:
            bfs = IncrementalBFS(session, root=0)
            cc = IncrementalCC(session)
            kc = IncrementalKCore(session, k=3)
            bfs.refresh(), cc.refresh(), kc.refresh()
            for batch in batches:
                session.mutate(batch)
                got = (bfs.refresh().digest(), cc.refresh().digest(),
                       kc.refresh().digest())
                snapshot, version = session._graph_snapshot()
                assert got == scratch_digests(snapshot, config), (
                    f"incremental != scratch at version {version}"
                )

    @given(
        streams(),
        st.integers(1, 4),
        st.sampled_from(["symple", "gemini"]),
        st.sampled_from(["serial", "process"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_drawn_streams(self, stream, machines, engine, executor):
        graph, symmetric, rounds = stream
        config = RunConfig(engine=engine, machines=machines,
                           executor=executor, workers=2, bfs_roots=1)
        with Session(graph, config) as session:
            handles = [IncrementalBFS(session, root=0), IncrementalCC(session)]
            if symmetric:  # the peel reads in-edges as undirected degree
                handles.append(IncrementalKCore(session, k=2))
            for handle in handles:
                handle.refresh()
            for batches in rounds:
                for batch in batches:
                    session.mutate(batch)
                got = [handle.refresh().digest() for handle in handles]
                snapshot, version = session._graph_snapshot()
                want = scratch_digests(snapshot, config, k=2)
                assert got == list(want[:len(got)]), (
                    f"incremental != scratch at version {version}"
                )

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_incremental_mode_actually_used(self, seed):
        """Deletion/insert-only schedules must take the repair path,
        not silently fall back to recompute (except k-core inserts)."""
        graph = base_graph(seed=1)
        batches = random_schedule(graph, seed, steps=3, allow_grow=False)
        config = serial_config()
        with Session(graph, config) as session:
            bfs = IncrementalBFS(session, root=0)
            cc = IncrementalCC(session)
            assert bfs.refresh().mode == "scratch"
            assert cc.refresh().mode == "scratch"
            for batch in batches:
                session.mutate(batch)
                assert bfs.refresh().mode == "incremental"
                assert cc.refresh().mode == "incremental"

    def test_non_integral_root_rejected(self):
        graph = CSRGraph.from_edges(4, [(0, 1), (2, 3)])
        with Session(graph, serial_config()) as session:
            with pytest.raises(GraphError, match="root"):
                IncrementalBFS(session, root=2.5)  # never truncated to 2

    def test_unreachable_after_bridge_delete(self):
        """Deleting the only path to a region must re-mark it
        unreachable (-1), exactly as a scratch BFS would."""
        # 0-1-2 chain plus a 3-4 island reached only through 2-3
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        sym = edges + [(b, a) for a, b in edges]
        graph = CSRGraph.from_edges(5, sym)
        config = serial_config()
        with Session(graph, config) as session:
            bfs = IncrementalBFS(session, root=0)
            assert bfs.refresh().values.tolist() == [0, 1, 2, 3, 4]
            session.mutate(MutationBatch.deletes([(2, 3), (3, 2)]))
            got = bfs.refresh()
            assert got.mode == "incremental"
            assert got.values.tolist() == [0, 1, 2, -1, -1]

    def test_cc_split_and_rejoin(self):
        edges = [(0, 1), (1, 2), (3, 4)]
        sym = edges + [(b, a) for a, b in edges]
        graph = CSRGraph.from_edges(5, sym)
        config = serial_config()
        with Session(graph, config) as session:
            cc = IncrementalCC(session)
            assert cc.refresh().values.tolist() == [0, 0, 0, 3, 3]
            session.mutate(MutationBatch.deletes([(1, 2), (2, 1)]))
            assert cc.refresh().values.tolist() == [0, 0, 2, 3, 3]
            session.mutate(MutationBatch.inserts([(2, 3), (3, 2)]))
            got = cc.refresh()
            assert got.mode == "incremental"
            assert got.values.tolist() == [0, 0, 2, 2, 2]


class TestRepairIsLocal:
    def test_one_lost_support_does_not_cost_the_component(self):
        """A count, not a time: on a graph with one giant component,
        deleting a non-bridge edge repairs by traversing a sliver of
        what the scratch twin traverses.  (The equality-chain closure
        this replaced invalidated the whole component: ~100 %.)"""
        graph = to_undirected(rmat(scale=9, edge_factor=8, seed=3))
        n = graph.num_vertices
        config = RunConfig(machines=4)
        with Session(graph, config) as session:
            cc = IncrementalCC(session)
            before = cc.refresh().values
            assert np.bincount(before).max() > 0.8 * n
            # the edge to pull: the only support of a vertex that
            # supports nobody itself, so exactly one vertex re-derives
            src, dst = graph.edge_array()
            level = _levels(graph, before)
            up = level[src] + 1 == level[dst]
            supports = np.bincount(dst[up], minlength=n)
            dependants = np.bincount(src[up], minlength=n)
            e = np.flatnonzero(
                up & (supports[dst] == 1) & (dependants[dst] == 0)
                & (graph.in_degrees()[dst] >= 2)
            )[0]
            u, v = int(src[e]), int(dst[e])
            session.mutate(MutationBatch.deletes([(u, v), (v, u)]))
            got, engine = refresh_metered(session, cc)
            snapshot, _ = session._graph_snapshot()
        with Session(snapshot, config) as fresh:
            want, twin = refresh_metered(fresh, IncrementalCC(fresh))
        assert got.mode == "incremental" and want.mode == "scratch"
        assert got.digest() == want.digest()
        assert np.array_equal(got.values, before)  # not a bridge
        repaired = engine.counters.summary()["edges_traversed"]
        scratch = twin.counters.summary()["edges_traversed"]
        assert 0 < repaired < 0.1 * scratch


class TestUnreachedSentinel:
    """``_INF`` is 2**62 and the circulant hand-off carries a fold's
    running minimum as float64: ``_INF + 1`` rounds back to ``_INF``
    there, compares equal to the start value and must never emit."""

    def config(self, **options):
        return RunConfig(
            engine="symple", machines=4, verify="strict", bfs_roots=1,
            options=SympleOptions(**options),
        )

    def run(self, config):
        # a path 0-1-2 from the root, and a 6-clique nothing reaches:
        # in-degree 5, above the dependency threshold, so its pulls
        # circulate carried state
        clique = [(a, b) for a in range(3, 9) for b in range(3, 9) if a < b]
        edges = [(0, 1), (1, 2)] + clique
        graph = CSRGraph.from_edges(
            9, edges + [(b, a) for a, b in edges]
        )
        trail = []
        with Session(graph, config) as session:
            bfs = IncrementalBFS(session, root=0)
            trail.append(bfs.refresh())
            # a parallel copy of 3-4 puts both ends in the repair's
            # first wave; losing 5-6 seeds nothing (no level to lose)
            session.mutate(MutationBatch(
                insert_src=[3, 4], insert_dst=[4, 3],
                delete_src=[5, 6], delete_dst=[6, 5],
            ))
            result, engine = refresh_metered(session, bfs)
            trail.append(result)
        return trail, engine

    def test_high_degree_unreached_vertices_stay_unreached(self):
        trail, engine = self.run(self.config())
        assert [r.mode for r in trail] == ["scratch", "incremental"]
        for result in trail:
            assert result.values.tolist() == [0, 1, 2] + [-1] * 6
        analyzed = engine.ensure_analyzed(relax_depth_signal)
        assert engine.use_kernels and analyzed.kernel.kind == FULL_SCAN_MIN
        assert engine.counters.summary()["dep_bytes"] > 0  # it circulated
        oracle, twin = self.run(self.config(use_kernels=False))
        assert [r.digest() for r in trail] == [r.digest() for r in oracle]
        assert engine.counters.summary() == twin.counters.summary()
        assert engine.execution_time() == twin.execution_time()


class TestCrossExecutor:
    def test_digests_identical_across_executors(self):
        """One fixed schedule, both executors: every prefix's
        incremental digests must agree bit for bit."""
        graph = base_graph(seed=2)
        batches = random_schedule(graph, seed=99, steps=3)
        trails = {}
        for kind in ("serial", "process"):
            config = RunConfig(machines=4, executor=kind, workers=2,
                               bfs_roots=1)
            trail = []
            with Session(graph, config) as session:
                bfs = IncrementalBFS(session, root=0)
                cc = IncrementalCC(session)
                trail.append((bfs.refresh().digest(),
                              cc.refresh().digest()))
                for batch in batches:
                    session.mutate(batch)
                    trail.append((bfs.refresh().digest(),
                                  cc.refresh().digest()))
            trails[kind] = trail
        assert trails["serial"] == trails["process"]


class TestIncrementalKCore:
    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_deletion_only_peel_matches_scratch(self, seed):
        graph = base_graph(seed=3, n=36, m=200)
        rng = np.random.default_rng(seed)
        config = serial_config()
        with Session(graph, config) as session:
            kc = IncrementalKCore(session, k=3)
            assert kc.refresh().mode == "scratch"
            shadow = DynamicGraph(graph)
            for _ in range(3):
                src, dst = shadow.snapshot().edge_array()
                off_diag = np.flatnonzero(src != dst)
                if off_diag.size == 0:
                    break
                e = int(off_diag[rng.integers(0, off_diag.size)])
                u, v = int(src[e]), int(dst[e])
                batch = MutationBatch.deletes([(u, v), (v, u)])
                shadow.apply(batch)
                session.mutate(batch)
                got = kc.refresh()
                assert got.mode == "incremental"
                want = kcore_peel(shadow.snapshot(), 3).in_core
                assert np.array_equal(got.values.astype(bool), want)

    def test_grow_only_batch_stays_incremental(self):
        # an isolated new vertex cannot join a k >= 1 core, so growth
        # alone is no reason to recompute
        graph = base_graph(seed=4)
        config = serial_config()
        with Session(graph, config) as session:
            kc = IncrementalKCore(session, k=3)
            before = kc.refresh().values
            session.mutate(MutationBatch(add_vertices=2))
            got = kc.refresh()
            assert got.mode == "incremental"
            snapshot, _ = session._graph_snapshot()
            want = kcore_peel(snapshot, 3).in_core
            assert np.array_equal(got.values.astype(bool), want)
            assert got.values.tolist() == before.tolist() + [0, 0]

    def test_insert_falls_back_to_scratch(self):
        graph = base_graph(seed=4)
        config = serial_config()
        with Session(graph, config) as session:
            kc = IncrementalKCore(session, k=3)
            kc.refresh()
            session.mutate(MutationBatch.inserts([(0, 5), (5, 0)]))
            got = kc.refresh()
            assert got.mode == "scratch"
            snapshot, _ = session._graph_snapshot()
            want = kcore_peel(snapshot, 3).in_core
            assert np.array_equal(got.values.astype(bool), want)

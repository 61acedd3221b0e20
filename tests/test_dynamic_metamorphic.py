"""Metamorphic gate for the dynamic-graph subsystem.

The hard invariant (ISSUE 9): after **every** mutation batch, the
incremental result must equal a from-scratch run on the equivalent
static graph — bit-identical, and identical across the serial and
process executors.  Hypothesis drives randomized mutation
schedules (symmetric inserts, deletes of live edges, vertex growth)
and checks the gate on every prefix, not just the final state.
"""

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
from repro.graph import (
    DynamicGraph,
    MutationBatch,
    erdos_renyi,
    to_undirected,
)


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
    shadow = DynamicGraph(graph, compact_min=10**9)
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

    def test_unreachable_after_bridge_delete(self):
        """Deleting the only path to a region must re-mark it
        unreachable (-1), exactly as a scratch BFS would."""
        # 0-1-2 chain plus a 3-4 island reached only through 2-3
        from repro.graph.csr import CSRGraph

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
        from repro.graph.csr import CSRGraph

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
            shadow = DynamicGraph(graph, compact_min=10**9)
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

"""A traced run books exactly what an untraced one does.

The engines hand the network whole message lists and the network
decides how to book them (:meth:`SimulatedNetwork.send_many`): one
``send`` per message, in list order, when a delivery hook or the trace
log observes single messages; one sum per ``(tag, src, dst)`` when
nothing does.  Both must leave the same digest, counters, traffic
matrices and simulated time under every fault plan — the fault
controller's one generator serves delivery outcomes and dependency-loss
coins alike, so a booking that drew in another order would show here.

The circulant pull cuts each machine's candidates at the master bounds
of the partition's vertex order by master.  Chunked partitions make
that order the identity; a shuffled master map does not, and must
still reach the single-thread oracle's answers — while the BSP pull,
whose table comes from the same builder, keeps ascending vertex order.
"""

import numpy as np
import pytest

from repro import RunConfig, Session, api, rmat
from repro.algorithms.bfs import bfs, bottom_up_signal
from repro.algorithms.registry import fixpoint_digest
from repro.algorithms.cc import connected_components
from repro.algorithms.kcore import kcore
from repro.algorithms.pagerank import pagerank
from repro.engine import SympleGraphEngine, circulant_partition, make_engine
from repro.fault import FaultPlan, MessageFault
from repro.graph import to_undirected
from repro.partition import partition_with_masters
from repro.runtime.bitmap import Bitmap

ENGINES = ("symple", "gemini")
ALGORITHMS = ("bfs", "kcore", "pagerank", "cc")
PLANS = {
    "clean": None,
    "messages": FaultPlan(seed=5, messages=(
        MessageFault("drop", 0.1),
        MessageFault("duplicate", 0.1),
        MessageFault("delay", 0.1),
    )),
    "dep-loss": FaultPlan.dep_loss(0.3, seed=4),
}


@pytest.fixture(scope="module")
def graph():
    return to_undirected(rmat(scale=7, edge_factor=6, seed=3))


def observed(monkeypatch, graph, trace, **overrides):
    """What a run leaves behind, and its engine's network."""
    engines = []
    make = api.make_engine

    def recording(*args, **kwargs):
        engine = make(*args, **kwargs)
        engine.network.trace = trace
        engines.append(engine)
        return engine

    monkeypatch.setattr(api, "make_engine", recording)
    config = RunConfig(machines=5, seed=2, bfs_roots=2, kcore_k=3)
    with Session(graph, config) as session:
        result = session.run(**overrides)
    engine = engines[-1]
    net = engine.network
    return {
        "digest": result.digest(),
        "summary": engine.counters.summary(),
        "messages_by_tag": dict(engine.counters.messages_by_tag),
        "traffic": {tag: m.tolist() for tag, m in net.traffic.items()},
        "messages": {
            tag: m.tolist() for tag, m in net.message_counts.items()
        },
        "time": engine.execution_time(),
    }, net


class TestTracedBooksTheSame:
    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_booking(self, monkeypatch, graph, engine, algorithm, plan):
        run = dict(engine=engine, algorithm=algorithm, faults=PLANS[plan])
        untraced, _ = observed(monkeypatch, graph, False, **run)
        traced, net = observed(monkeypatch, graph, True, **run)
        assert traced == untraced
        # the trace is the per-message view of the same traffic
        assert net.log and not net.dropped_log_entries
        for tag, matrix in net.traffic.items():
            assert sum(
                nbytes for _, _, t, nbytes in net.log if t == tag
            ) == matrix.sum()


def _visit(v, parent, s):
    if s.visited[v]:
        return False
    s.visited[v] = True
    return True


ORACLE_RUNS = {
    "bfs": lambda engine: bfs(engine, 3).depth,
    "kcore": lambda engine: kcore(engine, 3).in_core,
    "pagerank": lambda engine: pagerank(engine).rank,
    "cc": lambda engine: connected_components(engine).label,
}


class TestShuffledMasters:
    @pytest.fixture(scope="class")
    def shuffled(self):
        graph = to_undirected(rmat(scale=9, edge_factor=6, seed=5))
        masters = np.random.default_rng(3).permutation(
            np.arange(graph.num_vertices) % 5
        )
        part = partition_with_masters(
            graph, masters, "outgoing-edge-cut", 5
        )
        # not the identity: the cut positions are in master order
        assert part._master_order is not None
        return graph, part

    def test_units_follow_the_schedule(self, shuffled):
        """Step ``s`` gives machine ``m`` partition ``j = (m + s + 1) % p``
        — the active vertices *mastered* on ``j`` with an in-edge on
        ``m`` — and hands on ``j``'s circulated count.  (Any cut of the
        vertices into p pieces reaches the oracle's answers; only the
        metering says the pieces are the masters'.)"""
        graph, part = shuffled
        p, master_of = part.num_machines, part.master_of
        engine = SympleGraphEngine(part)
        state = engine.new_state()
        state.set("frontier", np.arange(graph.num_vertices) % 7 == 0)
        state.add_array("visited", bool, False)
        active = np.ones(graph.num_vertices, dtype=bool)
        engine.pull(bottom_up_signal, _visit, state, active)
        high = engine._high_mask
        steps = engine.counters.iterations[0].steps
        for s, step in enumerate(steps):
            for m in range(p):
                j = circulant_partition(m, s, p)
                mine = (master_of == j) & part._has_in[m]
                assert step.low_vertices[m] == np.count_nonzero(mine & ~high)
                if s == 0:  # nothing skipped yet
                    assert step.high_vertices[m] == np.count_nonzero(
                        mine & high
                    )
                circulated = np.count_nonzero((master_of == j) & high)
                assert step.dep_bytes[m] == (
                    0 if s == p - 1 else Bitmap.wire_bytes(circulated)
                )

    def test_bsp_sends_stay_in_vertex_order(self, shuffled):
        """A BSP pull's units are whole ``_has_in`` rows in ascending
        vertex order, never master order: each machine's update
        messages go out by ascending emitting vertex, and the traced
        booking leaves what the aggregate one does."""
        graph, part = shuffled
        p, master_of = part.num_machines, part.master_of
        frontier = np.arange(graph.num_vertices) % 7 == 0
        active = np.ones(graph.num_vertices, dtype=bool)

        def pulled(trace):
            engine = make_engine("gemini", part)
            engine.network.trace = trace
            state = engine.new_state()
            state.set("frontier", frontier)
            state.add_array("visited", bool, False)
            engine.pull(bottom_up_signal, _visit, state, active)
            return {
                "digest": fixpoint_digest(state.visited),
                "summary": engine.counters.summary(),
                "traffic": {
                    tag: matrix.tolist()
                    for tag, matrix in engine.network.traffic.items()
                },
            }, engine.network.log

        traced, log = pulled(True)
        aggregate, _ = pulled(False)
        assert traced == aggregate
        reordered = False
        for m in range(p):
            local = part.local_in(m)
            emitters = [
                v for v in np.flatnonzero(part._has_in[m] & active)
                if frontier[local.neighbors(v)].any()
            ]
            remote = [v for v in emitters if master_of[v] != m]
            sent = [d for s, d, tag, _ in log if s == m and tag == "update"]
            assert sent == master_of[remote].tolist()
            by_master = sorted(remote, key=lambda v: master_of[v])
            reordered |= sent != master_of[by_master].tolist()
        assert reordered  # master order would have sent them otherwise

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_single_thread(self, shuffled, engine, algorithm):
        graph, part = shuffled
        run = ORACLE_RUNS[algorithm]
        got = run(make_engine(engine, part))
        want = run(make_engine("single", graph))
        if algorithm == "pagerank":
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        else:
            np.testing.assert_array_equal(got, want)

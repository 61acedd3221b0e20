"""A break-free min fold runs without a dependency lane.

``cc_signal`` and ``relax_depth_signal`` never break, and their one
carried variable is a ``full_scan_min`` fold into a ``min_fold`` slot
on the field the fold starts from
(:func:`~repro.analysis.slotspec.min_fold_pair`).  Nothing can be
skipped, and per-machine partial minima combine at the master exactly,
so the symple engine runs them on the one-step BSP schedule: no
dependency bytes, and the edges and bytes of ``gemini``, with the
single-thread oracle's fixpoint.  Every other carry — a min fold with
another slot, PageRank's sum, SSSP's unclassified fold, every break —
still circulates.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.algorithms import IncrementalBFS, IncrementalCC, cc_signal, relax
from repro.algorithms.cc import _min_slot
from repro.algorithms.incremental import _depth_slot, relax_depth_signal
from repro.analysis import check_parallel_decomposable, instrument_signal
from repro.analysis.slotspec import min_fold_pair
from repro.api import RunConfig, Session
from repro.engine import make_engine
from repro.engine.state import StateStore
from repro.errors import KernelSoundnessError
from repro.fault import FaultPlan
from repro.graph import MutationBatch, random_weights, rmat, to_undirected
from repro.graph.csr import CSRGraph

WORK = ("update_bytes", "total_bytes", "edges_traversed")


def skewed(scale=8, seed=7):
    return to_undirected(
        rmat(scale=scale, edge_factor=6, a=0.7, b=0.1, c=0.1, seed=seed)
    )


def symmetric(n, pairs):
    return CSRGraph.from_edges(n, pairs + [(b, a) for a, b in pairs])


DEGENERATE = {
    "empty": CSRGraph.from_edges(0, []),
    "one-vertex": CSRGraph.from_edges(1, []),
    "p-above-n": symmetric(3, [(0, 1), (1, 2)]),
    "self-loops": CSRGraph.from_edges(
        5, [(0, 0), (1, 1), (0, 1), (1, 0), (2, 2), (3, 4), (4, 3)]
    ),
    "star": symmetric(12, [(0, i) for i in range(1, 12)]),
}


def run(graph, engine="symple", machines=4, **kwargs):
    if engine == "single":
        machines = 1
    config = RunConfig(engine=engine, machines=machines, algorithm="cc",
                       **kwargs)
    with Session(graph, config) as session:
        return session.run()


def batches(graph, seed=3):
    """Two symmetric batches valid against ``graph``: a few live pairs
    deleted, a few pairs inserted (nothing when there is no vertex)."""
    n = graph.num_vertices
    if n < 2:
        return []
    rng = np.random.default_rng(seed)
    src, dst = graph.edge_array()
    live = np.flatnonzero(src < dst)
    doomed = rng.choice(live, size=min(4, live.size), replace=False)
    out = []
    for chunk in np.array_split(doomed, 2):
        u = rng.integers(0, n, size=2)
        v = (u + 1 + rng.integers(0, n - 1, size=2)) % n
        ds, dd = src[chunk], dst[chunk]
        out.append(MutationBatch(
            insert_src=np.concatenate([u, v]),
            insert_dst=np.concatenate([v, u]),
            delete_src=np.concatenate([ds, dd]),
            delete_dst=np.concatenate([dd, ds]),
        ))
    return out


def stream(graph, engine="symple", machines=4, **kwargs):
    """Per refresh of incremental BFS and CC over :func:`batches`:
    ``(algorithm, mode, result digest, counters summary)``."""
    if engine == "single":
        machines = 1
    config = RunConfig(engine=engine, machines=machines, **kwargs)
    rows = []
    with Session(graph, config) as session:
        inner = session.engine_context
        log = []

        @contextmanager
        def recording(*args, **kw):
            with inner(*args, **kw) as context:
                yield context
                log.append(context[0].counters.summary())

        session.engine_context = recording
        handles = [IncrementalCC(session)]
        if graph.num_vertices:
            root = int(np.argmax(graph.out_degrees()))
            handles.insert(0, IncrementalBFS(session, root))
        for batch in [None] + batches(graph):
            if batch is not None:
                session.mutate(batch)
            for handle in handles:
                res = handle.refresh()
                rows.append((res.algorithm, res.mode, res.digest(),
                             log.pop()))
    return rows


def assert_like_gemini(symple, gemini):
    assert symple["dep_bytes"] == 0
    for key in WORK:
        assert symple[key] == gemini[key], key


def check_like_gemini(graph, machines):
    """CC and the incremental stream on ``symple``: no dependency
    bytes, gemini's work, the single-thread oracle's answers."""
    symple = run(graph, machines=machines)
    assert_like_gemini(vars(symple), vars(run(graph, "gemini", machines)))
    assert symple.fixpoint == run(graph, "single").fixpoint
    rows = stream(graph, machines=machines)
    for s, g, o in zip(rows, stream(graph, "gemini", machines),
                       stream(graph, "single")):
        assert_like_gemini(s[3], g[3])
        assert s[:3] == g[:3] == o[:3]
    return rows


class TestNoDependencyLane:
    @pytest.mark.parametrize("machines", [2, 4, 8])
    def test_costs_what_gemini_does(self, machines):
        rows = check_like_gemini(skewed(), machines)
        assert [r[1] for r in rows] == ["scratch"] * 2 + ["incremental"] * 4

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_graphs(self, name):
        check_like_gemini(DEGENERATE[name], 8)


@pytest.mark.parametrize("signal,slot,field", [
    (cc_signal, _min_slot, "label"),
    (relax_depth_signal, _depth_slot, "depth"),
])
def test_accepted_pairs_are_parallel_decomposable(signal, slot, field):
    """Definition 2.2, by the randomized oracle: per-chunk signals and
    the slot give the sequential answer for every pair the rule takes."""
    assert min_fold_pair(instrument_signal(signal), slot)
    rng = np.random.default_rng(5)
    values = rng.integers(0, 40, size=24).astype(np.int64)

    def make_state():
        state = StateStore(24)
        state.set(field, values.copy())
        return state

    assert check_parallel_decomposable(
        signal, slot, make_state, lambda s: s.array(field)[0].item(),
        neighbor_pool=range(1, 24), trials=50,
    )


class TestSameDigests:
    @pytest.fixture(scope="class")
    def graph(self):
        return skewed(seed=11)

    @pytest.mark.parametrize("mode,width", [("sync", None), ("async", None),
                                            ("async", 3.0)])
    def test_across_executors_and_kernels(self, monkeypatch, interpreted,
                                          graph, mode, width):
        if width is not None:  # the width the async run takes
            monkeypatch.setattr(relax, "default_bucket_width",
                                lambda algorithm, graph: width)
        runs = [
            run(graph, mode=mode, **kwargs)
            for kwargs in (
                {},
                {"executor": "process", "workers": 2},
                {"verify": "strict"},
            )
        ]
        interpreted()
        runs.append(run(graph, mode=mode))
        assert runs[0].dep_bytes == 0
        assert len({r.digest() for r in runs}) == 1

    def test_incremental_across_executors_and_kernels(self, interpreted,
                                                      graph):
        digests = [
            [(row[2], row[3]) for row in stream(graph, **kwargs)]
            for kwargs in (
                {},
                {"executor": "process", "workers": 2},
                {"verify": "strict"},
            )
        ]
        interpreted()
        digests.append([(row[2], row[3]) for row in stream(graph)])
        assert all(d == digests[0] for d in digests)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_recovery_equals_a_clean_run(self, graph, mode):
        clean = run(graph, mode=mode)
        recovered = run(
            graph, mode=mode,
            faults=FaultPlan.single_crash(machine=1, iteration=2),
            checkpoint_interval=1,
        )
        assert recovered.extra["fault_crashes"] == 1
        assert recovered.dep_bytes == 0
        assert recovered.fixpoint == clean.fixpoint


def _assign_slot(v, value, s):
    s.label[v] = value
    return True


def _other_min_slot(v, value, s):
    if value < s.other[v]:
        s.other[v] = value
        return True
    return False


class TestStillCirculates:
    @pytest.mark.parametrize("slot,circulates", [
        (_min_slot, False),
        (_assign_slot, True),
        (_other_min_slot, True),
    ])
    def test_cc_signal_needs_its_min_slot(self, slot, circulates):
        graph = skewed()
        n = graph.num_vertices
        engine = make_engine("symple", graph, 4)
        state = engine.new_state()
        state.set("label", np.arange(n, dtype=np.int64))
        state.set("other", np.arange(n, dtype=np.int64))
        engine.pull(cc_signal, slot, state, np.ones(n, dtype=bool))
        assert (engine.counters.summary()["dep_bytes"] > 0) == circulates

    @pytest.mark.parametrize("algorithm", ["pagerank", "sssp", "bfs",
                                           "kcore", "mis", "kmeans",
                                           "sampling"])
    def test_other_carries(self, algorithm):
        graph = random_weights(skewed(scale=10), seed=3)
        config = RunConfig(machines=4, algorithm=algorithm, bfs_roots=1)
        with Session(graph, config) as session:
            assert session.run().dep_bytes > 0


def test_cc_at_scale_matches_gemini_simulated_time():
    graph = rmat(scale=14, seed=1)
    symple, gemini = run(graph, machines=8), run(graph, "gemini", 8)
    assert symple.dep_bytes == 0
    assert symple.simulated_time == pytest.approx(
        gemini.simulated_time, rel=1e-3
    )


def max_signal(v, nbrs, s, emit):
    best = s.label[v]
    for u in nbrs:
        if s.label[u] > best:
            best = s.label[u]
    if best > s.label[v]:
        emit(best)


class TestCertificate:
    """Under ``verify``, the rule rests on the fold's kernel contract:
    a max fold that claims ``cc_signal``'s min spec is refuted and
    circulates, whether or not the kernels are on."""

    def pull(self, verify, off):
        graph = skewed()
        n = graph.num_vertices
        engine = make_engine("symple", graph, 4, verify=verify)
        if off is not None:
            off(engine)
        analyzed = engine.ensure_analyzed(max_signal)
        analyzed.kernel = engine.ensure_analyzed(cc_signal).kernel
        state = engine.new_state()
        state.set("label", np.arange(n, dtype=np.int64))
        engine.pull(analyzed, _min_slot, state, np.ones(n, dtype=bool))
        return engine.counters.summary()["dep_bytes"]

    @pytest.mark.parametrize("use_kernels", [True, False])
    def test_refuted_contract_circulates(self, interpreted, use_kernels):
        off = None if use_kernels else interpreted
        assert self.pull("off", off) == 0  # trusted unchecked
        with pytest.warns(RuntimeWarning, match="max_signal"):
            assert self.pull("warn", off) > 0
        with pytest.raises(KernelSoundnessError):
            self.pull("strict", off)

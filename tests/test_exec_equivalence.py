"""Cross-executor bit-identity.

The executor backend decides *where* per-(machine, step) work runs —
inline or in forked workers over shared memory — and is
required to be invisible in every observable: results, per-iteration
counters, network traffic, and therefore the canonical
:meth:`RunResult.digest`.  This suite runs the full engine x algorithm
matrix under every backend and diffs the digests, plus a direct
engine-level comparison of result arrays and counter summaries, and
seeded fault-injection configs (the parent draws every fault coin, so a
faulted phase fans out to the workers like any other and the digests
must still agree across backends).
"""

import numpy as np
import pytest

from repro.api import Checkpointing, RunConfig, Session
from repro.engine import SympleGraphEngine, SympleOptions
from repro.errors import UnsupportedAlgorithmError
from repro.exec import EXECUTOR_KINDS, make_executor
from repro.fault import CrashFault, FaultPlan, MessageFault
from repro.obs import Tracer
from repro.graph import erdos_renyi, to_undirected
from repro.partition import OutgoingEdgeCut

ENGINES = ("gemini", "symple", "dgalois", "single")
ALGORITHMS = ("bfs", "kcore", "mis", "kmeans", "sampling")
WORKERS = 2


@pytest.fixture(scope="module")
def graph():
    return to_undirected(erdos_renyi(64, 300, seed=11))


@pytest.fixture(scope="module")
def digests(graph):
    """digest[(engine, algorithm)] per executor backend, one pass each."""
    table = {}
    for backend in EXECUTOR_KINDS:
        workers = None if backend == "serial" else WORKERS
        base = RunConfig(
            machines=4, seed=3, executor=backend, workers=workers,
            bfs_roots=2, kcore_k=2, kmeans_rounds=1,
        )
        with Session(graph, base) as session:
            rows = {}
            for engine in ENGINES:
                for algorithm in ALGORITHMS:
                    try:
                        result = session.run(
                            engine=engine, algorithm=algorithm
                        )
                    except UnsupportedAlgorithmError:
                        # e.g. sampling has no D-Galois reference; the
                        # gap must at least be backend-independent
                        rows[(engine, algorithm)] = None
                        continue
                    rows[(engine, algorithm)] = result.digest()
            table[backend] = rows
    return table


class TestMatrixDigests:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_backends_agree(self, digests, engine, algorithm):
        key = (engine, algorithm)
        serial = digests["serial"][key]
        assert digests["process"][key] == serial
        if serial is None:
            pytest.skip(f"{algorithm} unsupported on {engine}")

    def test_backend_count(self, digests):
        # the matrix above only proves equivalence if every registered
        # backend actually appears in the table
        assert set(digests) == set(EXECUTOR_KINDS) == {"serial", "process"}


class TestEngineLevelIdentity:
    """Beyond digests: raw result arrays, counters, and traffic."""

    @pytest.mark.parametrize("use_kernels", [True, False])
    def test_symple_bfs_arrays_and_traffic(self, graph, use_kernels):
        from repro.algorithms import bfs

        partition = OutgoingEdgeCut().partition(graph, 4)
        root = int(np.argmax(graph.out_degrees()))
        runs = {}
        for backend in EXECUTOR_KINDS:
            ex = make_executor(
                backend, workers=None if backend == "serial" else WORKERS
            )
            try:
                engine = SympleGraphEngine(
                    partition,
                    SympleOptions(use_kernels=use_kernels),
                    executor=ex,
                )
                result = bfs(engine, root, mode="bottomup")
            finally:
                ex.close()
            runs[backend] = (engine, result)
        eng_s, res_s = runs["serial"]
        for backend in ("process",):
            eng, res = runs[backend]
            assert np.array_equal(res.depth, res_s.depth), backend
            assert eng.counters.summary() == eng_s.counters.summary(), backend
            for tag in eng_s.network.traffic:
                assert np.array_equal(
                    eng.network.traffic[tag], eng_s.network.traffic[tag]
                ), (backend, tag)
                assert np.array_equal(
                    eng.network.message_counts[tag],
                    eng_s.network.message_counts[tag],
                ), (backend, tag)


def twice_signal(v, nbrs, s, emit):
    """Two emissions per emitting vertex: no kernel shape fits it, so
    every backend interprets it."""
    for u in nbrs:
        if s.flag[u] > 0:
            emit(u)
            emit(-u)
            break


def tally_slot(v, value, s):
    s.hits[v] += 1
    return True


class TestMultiEmission:
    """One message per emitting vertex, ``update_bytes`` per value: the
    pull unit's result must keep the per-vertex value count."""

    def test_circulant_messages_by_tag(self, graph):
        partition = OutgoingEdgeCut().partition(graph, 4)
        runs = {}
        for backend in EXECUTOR_KINDS:
            ex = make_executor(
                backend, workers=None if backend == "serial" else WORKERS
            )
            try:
                engine = SympleGraphEngine(
                    partition, SympleOptions(degree_threshold=0), executor=ex
                )
                state = engine.new_state()
                state.add_array("flag", "float64")[::3] = 1.0
                state.add_array("hits", "int64")
                active = np.ones(graph.num_vertices, dtype=bool)
                result = engine.pull(
                    twice_signal, tally_slot, state, active, update_bytes=8
                )
                assert ex.last_fallback is None
                # copy out before close: the process backend's adopted
                # state pages go away with its arena
                runs[backend] = (engine, result, np.array(state.hits))
            finally:
                ex.close()
        engine, result, hits = runs["serial"]
        assert engine.ensure_analyzed(twice_signal).kernel is None
        assert len(engine.counters.iterations[-1].steps) == 4  # circulant
        emitters = int(np.count_nonzero(hits))
        # the dependency makes each vertex emit on exactly one machine
        assert set(hits.tolist()) <= {0, 2} and emitters > 0
        assert result.updates_applied == 2 * emitters
        messages = engine.counters.messages_by_tag["update"]
        assert 0 < messages <= emitters
        assert engine.counters.bytes_by_tag["update"] == 16 * messages
        eng_p, res_p, hits_p = runs["process"]
        assert np.array_equal(hits_p, hits)
        assert eng_p.counters.summary() == engine.counters.summary()
        assert dict(eng_p.counters.bytes_by_tag) == dict(
            engine.counters.bytes_by_tag
        )


class TestFaultedRuns:
    """Seeded fault plans must replay identically on every backend."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan.dep_loss(0.3, seed=5),
            FaultPlan(seed=7, crashes=(CrashFault(machine=1, iteration=1),)),
            FaultPlan(
                seed=23,
                messages=(
                    MessageFault("drop", 0.2, tag="dep"),
                    MessageFault("duplicate", 0.15, tag="update"),
                ),
            ),
        ],
        ids=["dep-loss", "crash", "dep-loss+duplicates"],
    )
    def test_faulted_kcore_digest(self, graph, plan):
        results = {}
        tracers = {}
        for backend in EXECUTOR_KINDS:
            tracers[backend] = Tracer()
            config = RunConfig(
                engine="symple",
                algorithm="kcore",
                machines=4,
                seed=3,
                kcore_k=2,
                faults=plan,
                checkpointing=Checkpointing(interval=1),
                executor=backend,
                workers=None if backend == "serial" else WORKERS,
                obs=tracers[backend],
            )
            with Session(graph, config) as session:
                results[backend] = session.run().digest()
        assert results["process"] == results["serial"]
        # no plan pushes a phase off the kernel path or off the executor
        for backend, tracer in tracers.items():
            kinds = {event["kind"] for event in tracer.events}
            assert {"kernel_batch", "exec_map_end"} <= kinds, backend

"""The async priority-bucket scheduler (RunConfig(mode="async")).

Contracts under test:

* **sync/async equivalence** — BFS, SSSP, and CC are monotone under
  per-bucket activation, so their converged fixpoint digests are
  bit-identical to the synchronous run for any seed and width, on a
  low-diameter R-MAT and a high-diameter grid alike;
* **determinism** — fixed seed + width gives bit-identical run digests
  across the serial and process executors;
* **observability** — bucket epochs land on the trace as closed-schema
  ``bucket_begin``/``bucket_end`` events and survive validation;
* **recoverability** — every async driver is a VertexProgram, so
  ``run_recoverable`` checkpoints at bucket-epoch boundaries and
  crash-recovery stays bit-identical.
"""

import numpy as np
import pytest

from repro.algorithms.bfs import AsyncBFSProgram
from repro.algorithms.cc import cc_program
from repro.algorithms.registry import async_algorithms, fixpoint_digest
from repro.algorithms.relax import default_bucket_width
from repro.algorithms.sssp import sssp_program
from repro.api import RunConfig, Session
from repro.engine import ASYNC_ENGINES, make_engine
from repro.errors import EngineError
from repro.fault import CrashFault, FaultPlan, run_program, run_recoverable
from repro.graph import grid_graph, random_weights, rmat, to_undirected
from repro.obs import ObsHub, Tracer, validate_events

MACHINES = 4

#: a skewed R-MAT — the workload where priority scheduling pays off
SKEWED = dict(scale=9, edge_factor=6, a=0.7, b=0.1, c=0.1, seed=7)


@pytest.fixture(scope="module")
def skewed_graph():
    return to_undirected(rmat(**SKEWED))


@pytest.fixture(scope="module")
def weighted_graph(skewed_graph):
    return random_weights(skewed_graph, seed=3)


@pytest.fixture(scope="module")
def grid():
    """High diameter: the regime where the bucket schedule wins."""
    return grid_graph(24, 24)


def run_one(graph, **kwargs):
    config = RunConfig(machines=MACHINES, **kwargs)
    with Session(graph, config) as session:
        return session.run()


def run_async(graph, algorithm, width, seed, sources=()):
    """``(fixpoint, results)`` of an async run at bucket ``width``,
    digested as ``Session.run`` digests it; ``None`` is the width a
    ``RunConfig(mode="async")`` run takes, any other is given to the
    program itself."""
    if width is None:
        width = default_bucket_width(algorithm, graph)
    engine = make_engine("symple", graph, MACHINES)
    if algorithm == "cc":
        result = run_program(cc_program(width, seed), engine)
        return fixpoint_digest(result.label), [result]
    program = AsyncBFSProgram if algorithm == "bfs" else sssp_program
    results = [run_program(program(root, width, seed), engine)
               for root in sources]
    arrays = [
        a for r in results
        for a in ((r.visited, r.depth) if algorithm == "bfs" else (r.dist,))
    ]
    return fixpoint_digest(*arrays), results


class TestValidation:
    def test_async_requires_capable_engine(self):
        with pytest.raises(EngineError, match="per-bucket"):
            RunConfig(engine="dgalois", mode="async")
        for engine in ASYNC_ENGINES:
            RunConfig(engine=engine, mode="async")  # validates clean

    def test_async_requires_async_algorithm(self):
        with pytest.raises(EngineError, match="no async driver"):
            RunConfig(algorithm="kcore", mode="async")
        # PageRank runs sync only; the error names the async set
        with pytest.raises(
            EngineError, match=r"'pagerank' has no async driver.*"
            r"\('bfs', 'cc', 'sssp'\)",
        ):
            RunConfig(algorithm="pagerank", mode="async")

    def test_program_width_must_be_positive(self, skewed_graph):
        """A width is a program's argument; ``RunConfig`` takes none."""
        for width in (0.0, -1.0):
            engine = make_engine("symple", skewed_graph, MACHINES)
            with pytest.raises(EngineError, match="> 0"):
                run_program(cc_program(width=width), engine)

    def test_engine_gate_on_direct_drivers(self, skewed_graph):
        engine = make_engine("dgalois", skewed_graph, MACHINES)
        with pytest.raises(EngineError):
            run_program(cc_program(width=8.0), engine)

    def test_default_widths_positive(self, weighted_graph):
        for algo in async_algorithms():
            assert default_bucket_width(algo, weighted_graph) > 0


class TestSyncAsyncEquivalence:
    """Monotone algorithms reach the identical fixpoint async."""

    @pytest.mark.parametrize("algo", ["bfs", "cc"])
    @pytest.mark.parametrize("width", [None, 3.0])
    def test_fixpoint_matches_sync(self, skewed_graph, grid, algo, width):
        # explicit sources where applicable: the multi-root protocol is
        # seeded, and here the seed must only move the bucket schedule
        pins = {"sources": (0, 5)} if algo == "bfs" else {}
        for graph in (skewed_graph, grid):
            sync = run_one(graph, algorithm=algo, **pins)
            fixpoint, _ = run_async(graph, algo, width, 5, (0, 5))
            assert sync.fixpoint is not None
            assert fixpoint == sync.fixpoint
            if width is None:  # the run's default width, end to end
                awr = run_one(graph, algorithm=algo, mode="async", seed=5,
                              **pins)
                assert awr.fixpoint == sync.fixpoint

    @pytest.mark.parametrize("width", [None, 0.5])
    def test_sssp_fixpoint_matches_sync(self, weighted_graph, grid, width):
        for graph in (weighted_graph, random_weights(grid, seed=3)):
            sync = run_one(graph, algorithm="sssp", sources=(0,))
            fixpoint, _ = run_async(graph, "sssp", width, 5, (0,))
            assert fixpoint == sync.fixpoint

    def test_seed_changes_schedule_not_fixpoint(self, weighted_graph):
        runs = [
            run_async(weighted_graph, "sssp", 0.25, s, (0,))
            for s in (0, 1, 2)
        ]
        assert len({fixpoint for fixpoint, _ in runs}) == 1
        # different offsets genuinely produce different schedules
        schedules = {
            (r.buckets, r.waves, r.activations) for _, [r] in runs
        }
        assert len(schedules) > 1

    def test_async_bfs_depths_exact(self, skewed_graph):
        from repro.algorithms import bfs

        engine = make_engine("symple", skewed_graph, MACHINES)
        sync = bfs(engine, 0)
        engine = make_engine("symple", skewed_graph, MACHINES)
        awr = run_program(AsyncBFSProgram(0, width=4, seed=9), engine)
        np.testing.assert_array_equal(sync.depth, awr.depth)
        np.testing.assert_array_equal(sync.visited, awr.visited)
        assert awr.buckets > 1  # width 4 actually bucketed the depths


class TestExecutorDeterminism:
    """Fixed seed + width: bit-identical digests across executors."""

    @pytest.mark.parametrize("algo", ["bfs", "cc", "sssp"])
    def test_digest_identical_across_executors(
        self, weighted_graph, algo
    ):
        digests = {}
        for executor in ("serial", "process"):
            result = run_one(
                weighted_graph, algorithm=algo, bfs_roots=2,
                mode="async", seed=3, executor=executor, workers=2,
            )
            digests[executor] = result.digest()
        assert digests["serial"] == digests["process"]


class TestBucketObservability:
    def test_bucket_events_on_trace_and_valid(self, weighted_graph):
        hub = ObsHub(tracer=Tracer())
        engine = make_engine(
            "symple", weighted_graph, MACHINES, obs=hub
        )
        width = default_bucket_width("sssp", weighted_graph)
        result = run_program(sssp_program(0, width, seed=4), engine)
        hub.run_end(engine, engine.execution_time())
        events = hub.tracer.events
        assert validate_events(events) == []
        begins = [e for e in events if e["kind"] == "bucket_begin"]
        ends = [e for e in events if e["kind"] == "bucket_end"]
        assert len(begins) == len(ends) == result.buckets
        assert sum(e["activations"] for e in ends) == result.activations
        assert sum(e["waves"] for e in ends) == result.waves
        # live metrics mirror the trace
        assert (
            hub.metrics.counter("repro_buckets_total").value()
            == result.buckets
        )
        assert (
            hub.metrics.counter("repro_async_activations_total").value()
            == result.activations
        )

    def test_activation_waves_are_costed(self, skewed_graph):
        """Activation waves with work are metered engine phases.

        Waves whose frontier has no out-candidates skip the pull (and
        rightly cost nothing), so iterations is bounded by waves.
        """
        engine = make_engine("symple", skewed_graph, MACHINES)
        width = default_bucket_width("cc", skewed_graph)
        result = run_program(cc_program(width, seed=1), engine)
        assert 0 < len(engine.counters.iterations) <= result.waves
        assert engine.execution_time() > 0


class TestAsyncRecovery:
    def test_checkpoints_at_bucket_epochs(self, skewed_graph):
        engine = make_engine("symple", skewed_graph, MACHINES)
        baseline = run_program(AsyncBFSProgram(0, width=2, seed=6), engine)

        engine = make_engine("symple", skewed_graph, MACHINES)
        recovered, report = run_recoverable(
            AsyncBFSProgram(0, width=2, seed=6),
            engine,
            plan=FaultPlan(
                seed=3, crashes=(CrashFault(machine=1, iteration=2),)
            ),
            checkpoint_interval=1,
        )
        np.testing.assert_array_equal(baseline.depth, recovered.depth)
        np.testing.assert_array_equal(baseline.parent, recovered.parent)
        assert report.crashes == 1 and report.recoveries == 1
        assert report.checkpoints_taken > 0

    def test_session_faulted_async_bfs(self, skewed_graph):
        clean = run_one(
            skewed_graph, algorithm="bfs", bfs_roots=1, mode="async",
        )
        faulted = run_one(
            skewed_graph, algorithm="bfs", bfs_roots=1, mode="async",
            faults=FaultPlan.single_crash(machine=1, iteration=2),
            checkpoint_interval=1,
        )
        assert faulted.fixpoint == clean.fixpoint
        assert faulted.extra["fault_crashes"] == 1

    @pytest.mark.parametrize("algo", ["sssp", "cc"])
    def test_session_recovers_every_async_algorithm(
        self, weighted_graph, algo
    ):
        """One mid-run crash, a checkpoint per bucket epoch: the answer
        and every non-fault metric equal the clean twin's."""
        clean = run_one(weighted_graph, algorithm=algo, mode="async", seed=3)
        faulted = run_one(
            weighted_graph, algorithm=algo, mode="async", seed=3,
            faults=FaultPlan.single_crash(machine=1, iteration=2),
            checkpoint_interval=1,
        )
        assert faulted.fixpoint == clean.fixpoint
        assert faulted.extra["fault_crashes"] == 1
        assert faulted.extra["fault_recoveries"] == 1
        assert faulted.extra["fault_restores"] == 1
        for key, value in clean.extra.items():
            assert faulted.extra[key] == value, key

    def test_recovered_run_digest_identical_across_executors(
        self, weighted_graph
    ):
        digests = {
            executor: run_one(
                weighted_graph, algorithm="cc", mode="async", seed=3,
                executor=executor, workers=2,
                faults=FaultPlan.single_crash(machine=1, iteration=2),
                checkpoint_interval=1,
            ).digest()
            for executor in ("serial", "process")
        }
        assert digests["serial"] == digests["process"]

"""The async priority-bucket scheduler (RunConfig(mode="async")).

Contracts under test:

* **sync/async equivalence** — BFS, SSSP, and CC are monotone under
  per-bucket activation, so their converged fixpoint digests are
  bit-identical to the synchronous run for any seed and width;
  PageRank converges epsilon-bounded (the documented
  ``2R / ((1-d) * mass)`` L1 bound) with *fewer* activations than the
  power iteration on skewed graphs;
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
from repro.algorithms.pagerank import AsyncPageRankProgram
from repro.algorithms.relax import default_bucket_width
from repro.algorithms.sssp import sssp_program
from repro.api import Checkpointing, RunConfig, Session
from repro.engine import ASYNC_ENGINES, make_engine
from repro.errors import EngineError
from repro.fault import CrashFault, FaultPlan, run_program, run_recoverable
from repro.graph import random_weights, rmat, to_undirected
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


def run_one(graph, **kwargs):
    config = RunConfig(machines=MACHINES, **kwargs)
    with Session(graph, config) as session:
        return session.run()


class TestValidation:
    def test_async_requires_capable_engine(self):
        with pytest.raises(EngineError, match="per-bucket"):
            RunConfig(engine="dgalois", mode="async")
        for engine in ASYNC_ENGINES:
            RunConfig(engine=engine, mode="async")  # validates clean

    def test_async_requires_async_algorithm(self):
        with pytest.raises(EngineError, match="no async driver"):
            RunConfig(algorithm="kcore", mode="async")

    def test_bucket_width_needs_async_mode(self):
        with pytest.raises(EngineError, match="async"):
            RunConfig(async_bucket_width=2.0)
        with pytest.raises(EngineError, match="> 0"):
            RunConfig(mode="async", async_bucket_width=-1.0)

    def test_engine_gate_on_direct_drivers(self, skewed_graph):
        engine = make_engine("dgalois", skewed_graph, MACHINES)
        with pytest.raises(EngineError):
            run_program(cc_program(width=8.0), engine)

    def test_default_widths_positive(self, weighted_graph):
        for algo in ("bfs", "sssp", "cc", "pagerank"):
            assert default_bucket_width(algo, weighted_graph) > 0


class TestSyncAsyncEquivalence:
    """Monotone algorithms reach the identical fixpoint async."""

    @pytest.mark.parametrize("algo", ["bfs", "cc"])
    @pytest.mark.parametrize("width", [None, 3.0])
    def test_fixpoint_matches_sync(self, skewed_graph, algo, width):
        # explicit sources where applicable: the multi-root protocol is
        # seeded, and here the seed must only move the bucket schedule
        pins = {"sources": (0, 5)} if algo == "bfs" else {}
        sync = run_one(skewed_graph, algorithm=algo, **pins)
        awr = run_one(
            skewed_graph, algorithm=algo,
            mode="async", async_bucket_width=width, seed=5, **pins,
        )
        assert sync.fixpoint is not None
        assert awr.fixpoint == sync.fixpoint

    @pytest.mark.parametrize("width", [None, 0.5])
    def test_sssp_fixpoint_matches_sync(self, weighted_graph, width):
        sync = run_one(weighted_graph, algorithm="sssp", sources=(0,))
        awr = run_one(
            weighted_graph, algorithm="sssp", sources=(0,),
            mode="async", async_bucket_width=width, seed=5,
        )
        assert awr.fixpoint == sync.fixpoint

    def test_seed_changes_schedule_not_fixpoint(self, weighted_graph):
        runs = [
            run_one(
                weighted_graph, algorithm="sssp", sources=(0,),
                mode="async", async_bucket_width=0.25, seed=s,
            )
            for s in (0, 1, 2)
        ]
        assert len({r.fixpoint for r in runs}) == 1
        # different offsets genuinely produce different schedules
        schedules = {
            (r.extra["async_buckets"], r.extra["async_waves"],
             r.extra["activations"])
            for r in runs
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


class TestAsyncPageRank:
    def test_epsilon_bound_holds(self, skewed_graph):
        from repro.algorithms import pagerank

        engine = make_engine("symple", skewed_graph, MACHINES)
        exact = pagerank(engine, iterations=500, tolerance=1e-14)
        engine = make_engine("symple", skewed_graph, MACHINES)
        awr = run_program(
            AsyncPageRankProgram(seed=2, stop_mass=1e-6), engine
        )
        l1 = float(np.abs(awr.rank - exact.rank).sum())
        assert l1 <= awr.epsilon
        assert np.isclose(awr.rank.sum(), 1.0)

    def test_fewer_activations_than_sync_on_skewed_graph(self):
        """At matched accuracy the priority scheduler activates less.

        Directed skewed R-MAT: the power iteration re-touches every
        active vertex every sweep, while the residual scheduler spends
        its activations on the hubs (see benchmarks/bench_async.py for
        the recorded figures).
        """
        from repro.algorithms import pagerank

        graph = rmat(scale=10, edge_factor=4, a=0.7, b=0.1, c=0.1, seed=7)
        engine = make_engine("symple", graph, MACHINES)
        sync = pagerank(engine, iterations=1000, tolerance=1e-6)
        n_active = int((graph.in_degrees() > 0).sum())
        sync_activations = sync.iterations * n_active

        engine = make_engine("symple", graph, MACHINES)
        awr = run_program(
            AsyncPageRankProgram(seed=2, stop_mass=1e-6), engine
        )
        assert awr.activations < sync_activations

    def test_tighter_stop_mass_means_smaller_epsilon(self, skewed_graph):
        def eps(stop_mass):
            engine = make_engine("symple", skewed_graph, MACHINES)
            return run_program(
                AsyncPageRankProgram(seed=1, stop_mass=stop_mass), engine
            ).epsilon

        assert eps(1e-7) < eps(1e-4)


class TestExecutorDeterminism:
    """Fixed seed + width: bit-identical digests across executors."""

    @pytest.mark.parametrize("algo", ["bfs", "cc", "sssp", "pagerank"])
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
        hub.run_end(engine)
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
            checkpointing=Checkpointing(interval=1),
        )
        assert faulted.fixpoint == clean.fixpoint
        assert faulted.extra["fault_crashes"] == 1

    @pytest.mark.parametrize("algo", ["sssp", "cc", "pagerank"])
    def test_session_recovers_every_async_algorithm(
        self, weighted_graph, algo
    ):
        """One mid-run crash, a checkpoint per bucket epoch: the answer
        and every non-fault metric equal the clean twin's."""
        clean = run_one(weighted_graph, algorithm=algo, mode="async", seed=3)
        faulted = run_one(
            weighted_graph, algorithm=algo, mode="async", seed=3,
            faults=FaultPlan.single_crash(machine=1, iteration=2),
            checkpointing=Checkpointing(interval=1),
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
                checkpointing=Checkpointing(interval=1),
            ).digest()
            for executor in ("serial", "process")
        }
        assert digests["serial"] == digests["process"]

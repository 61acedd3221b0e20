"""Engine-equivalence and fault-visibility properties of the trace.

Two contracts:

* the batched-kernel fast path is *observationally* identical to the
  per-vertex interpreter — the traces differ only in ``kernel_batch``
  profiling events and wall-clock spans, never in semantic content;
* injected faults leave visible fingerprints — straggler slowdowns show
  up as dependency waits in the step timeline, and checkpoint traffic
  and recovery penalties survive trace reconstruction.
"""

import numpy as np
import pytest

from repro.algorithms import bfs
from repro.api import Checkpointing, RunConfig, Session
from repro.engine import SympleOptions, make_engine
from repro.fault import FaultPlan, StragglerFault
from repro.graph import erdos_renyi, to_undirected
from repro.obs import (
    MetricsRegistry,
    ObsHub,
    Tracer,
    fill_run_metrics,
    rebuild_counters,
    reconstruct_breakdown,
    validate_events,
)
from repro.obs.tracer import VOLATILE_KEYS
from repro.runtime import SYMPLE_COST

MACHINES = 4


def run_algo(engine, graph, algorithm, num_machines=16, **knobs):
    """Session-based stand-in for the retired legacy wrapper."""
    config = RunConfig(
        engine=engine, algorithm=algorithm, machines=num_machines, **knobs
    )
    with Session(graph, config) as session:
        return session.run()


@pytest.fixture(scope="module")
def graph():
    return to_undirected(erdos_renyi(300, 1800, seed=11))


def semantic_events(events):
    """Strip profiling-only content: kernel_batch events exist only on
    the fast path, and wall-clock spans legitimately differ."""
    out = []
    for event in events:
        if event["kind"] == "kernel_batch":
            continue
        out.append(
            {k: v for k, v in event.items()
             if k != "seq" and k not in VOLATILE_KEYS}
        )
    return out


def traced_bfs(graph, use_kernels):
    hub = ObsHub(tracer=Tracer())
    engine = make_engine(
        "symple", graph, MACHINES,
        options=SympleOptions(use_kernels=use_kernels), obs=hub,
    )
    bfs(engine, 0)
    hub.run_end(engine)
    return engine, hub


class TestKernelEquivalence:
    @pytest.fixture(scope="class")
    def runs(self, graph):
        return traced_bfs(graph, True), traced_bfs(graph, False)

    def test_traces_identical_modulo_profiling(self, runs):
        (_, fast_hub), (_, slow_hub) = runs
        fast = semantic_events(fast_hub.tracer.events)
        slow = semantic_events(slow_hub.tracer.events)
        assert fast == slow

    def test_fast_path_actually_batched(self, runs):
        (_, fast_hub), (_, slow_hub) = runs
        fast_kinds = {e["kind"] for e in fast_hub.tracer.events}
        slow_kinds = {e["kind"] for e in slow_hub.tracer.events}
        assert "kernel_batch" in fast_kinds
        assert "kernel_batch" not in slow_kinds

    def test_run_metrics_identical(self, runs):
        (fast_engine, _), (slow_engine, _) = runs
        exports = []
        for engine in (fast_engine, slow_engine):
            registry = MetricsRegistry()
            fill_run_metrics(
                registry, engine.counters, SYMPLE_COST, "symple"
            )
            exports.append(registry.export_json())
        assert exports[0] == exports[1]


class TestFaultVisibility:
    def test_straggler_shows_as_dep_wait(self, graph):
        plan = FaultPlan(
            stragglers=(StragglerFault(machine=1, factor=8.0),)
        )
        clean = run_algo(
            "symple", graph, "bfs", num_machines=MACHINES, bfs_roots=1
        )
        hub = ObsHub(tracer=Tracer())
        slowed = run_algo(
            "symple", graph, "bfs", num_machines=MACHINES, bfs_roots=1,
            faults=plan, obs=hub,
        )
        assert slowed.simulated_time > clean.simulated_time
        # the straggler's slowdown factor is recorded on the trace...
        counters = rebuild_counters(hub.tracer.events)
        full = [rec for rec in counters.iterations
                if rec.mode == "pull" and len(rec.steps) == MACHINES]
        assert any(
            step.slowdown[1] == 8.0 for rec in full for step in rec.steps
        )
        # ...and its neighbors' blocked time lands in the step timeline
        waits = np.sum(
            [SYMPLE_COST.circulant_timeline(rec).dep_wait_time()
             for rec in full], axis=0,
        )
        assert waits.sum() > 0.0
        # machine 0 waits on the straggler's hand-off (1 sends left to 0)
        assert waits[0] > 0.0

    def test_checkpoint_and_recovery_survive_reconstruction(self, graph):
        plan = FaultPlan.single_crash(machine=2, iteration=3)
        hub = ObsHub(tracer=Tracer())
        run_algo(
            "symple", graph, "bfs", num_machines=MACHINES, bfs_roots=1,
            faults=plan, checkpointing=Checkpointing(interval=1), obs=hub,
        )
        events = hub.tracer.events
        # aborted phases (injected crash) must still validate
        assert validate_events(events) == []
        kinds = {e["kind"] for e in events}
        assert {"crash", "rollback", "checkpoint"} <= kinds
        restored = [e for e in events if e["kind"] == "rollback"]
        assert restored and restored[0]["penalty"] > 0
        breakdown = reconstruct_breakdown(events, SYMPLE_COST)
        assert breakdown["checkpoint"] > 0.0
        counters = rebuild_counters(events)
        assert counters.penalty_time > 0.0
        assert counters.bytes_by_tag["ckpt"] > 0

    def test_faulted_breakdown_matches_live(self, graph):
        plan = FaultPlan.single_crash(machine=1, iteration=2)
        hub = ObsHub(tracer=Tracer())
        engine = make_engine("symple", graph, MACHINES, obs=hub)
        from repro.algorithms import BFSProgram
        from repro.fault import run_recoverable

        run_recoverable(
            BFSProgram(0), engine, plan=plan, checkpoint_interval=2
        )
        hub.run_end(engine)
        live = SYMPLE_COST.breakdown(engine.counters, "symple")
        assert reconstruct_breakdown(
            hub.tracer.events, SYMPLE_COST
        ) == live

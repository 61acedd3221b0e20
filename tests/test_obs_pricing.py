"""A run is priced once: the hub splits the total the harness priced.

The harness prices a finished run with ``engine.execution_time()``;
``ObsHub.run_end`` is handed that total and only splits it into the run
metrics (``CostModel.breakdown``), pricing every step at once, and
the per-step compute histogram observes the same step maxima.  The
census counts the cost model's calls; the lattice runs a hub on every
pricing regime the engine's options and the fault subsystem produce and
checks the exported metrics against the result and against a trace
rebuilt from scratch.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import RunConfig, Session
from repro.engine import SympleOptions
from repro.fault import FaultPlan
from repro.graph import rmat, to_undirected
from repro.obs import ObsHub, Tracer, reconstruct_breakdown, registry_breakdown
from repro.runtime.cost_model import CostModel


@pytest.fixture(scope="module")
def graph():
    return to_undirected(rmat(scale=8, edge_factor=8, seed=3))


@pytest.fixture
def census(monkeypatch):
    """Count ``execution_time`` / ``step_compute_time`` calls, and keep
    the counters every ``execution_time`` call priced."""
    calls = Counter()
    priced = []
    for name in ("execution_time", "step_compute_time"):
        original = getattr(CostModel, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            if _name == "execution_time":
                priced.append(args[0])
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(CostModel, name, counted)
    return calls, priced


class TestPricingCensus:
    @pytest.mark.parametrize("fields", [
        dict(algorithm="bfs"),
        dict(algorithm="kcore"),
        dict(engine="gemini", algorithm="bfs"),
        dict(algorithm="bfs", options=SympleOptions(schedule="naive")),
    ], ids=["symple-bfs", "symple-kcore", "gemini-bfs", "naive-bfs"])
    def test_a_hub_run_prices_once(self, graph, census, fields):
        """With a hub, a run makes the one ``execution_time`` call a run
        without one makes, and one ``step_compute_time`` call more: the
        split prices every recorded step at once, for the compute
        component and the histogram's one bulk observe alike."""
        calls, priced = census
        seen = {}
        for hub in (None, ObsHub()):
            calls.clear()
            del priced[:]
            with Session(graph, RunConfig(machines=4, obs=hub,
                                          **fields)) as session:
                session.run()
            seen[hub is not None] = dict(calls)
        assert seen[False]["execution_time"] == 1
        assert seen[True]["execution_time"] == 1
        (counters,) = priced
        steps = sum(len(record.steps) for record in counters.iterations)
        assert steps > 0
        extra = (seen[True].get("step_compute_time", 0)
                 - seen[False].get("step_compute_time", 0))
        assert extra == 1
        histogram = hub.metrics.get("repro_step_compute_time")
        assert histogram.samples()[0]["count"] == steps


#: runs whose pricing the hub used to read off the engine's options
LATTICE = {
    "no-double-buffering": dict(
        algorithm="kcore", options=SympleOptions(double_buffering=False)),
    "naive": dict(algorithm="kcore", options=SympleOptions(schedule="naive")),
    "gemini": dict(engine="gemini", algorithm="bfs"),
    "dgalois": dict(engine="dgalois", algorithm="bfs"),
    "single": dict(engine="single", algorithm="bfs"),
    "faulted": dict(algorithm="kcore", faults=FaultPlan.single_crash(1, 2),
                    checkpoint_interval=2),
    "bfs-3-roots": dict(algorithm="bfs", bfs_roots=3),
}


class TestPricingLattice:
    @pytest.mark.parametrize("name", sorted(LATTICE))
    def test_metrics_split_the_result_total(self, graph, name):
        hub = ObsHub(tracer=Tracer())
        config = RunConfig(machines=4, obs=hub, **LATTICE[name])
        with Session(graph, config) as session:
            result = session.run()
            with session.engine_context() as (engine, _, _):
                model = engine.default_cost
        metrics = hub.metrics
        scale = 1.0 / config.bfs_roots if config.algorithm == "bfs" else 1.0
        total = metrics.get("repro_simulated_time_total").value()
        assert total * scale == result.simulated_time
        events = hub.tracer.events
        assert registry_breakdown(metrics) == reconstruct_breakdown(
            events, model
        )
        (run_end,) = [e for e in events if e["kind"] == "run_end"]
        options = config.options or SympleOptions()
        symple = config.engine == "symple"
        assert run_end["double_buffering"] is (
            options.double_buffering if symple else True
        )
        assert run_end["schedule"] == (
            options.schedule if symple else "circulant"
        )
        if name == "faulted":
            assert registry_breakdown(metrics)["checkpoint"] > 0.0
            assert metrics.get("repro_penalty_time").value() > 0.0


#: the lattice plus a process-executor run (pool spawns, arena growth)
#: and an async one (priority buckets)
COUNTED = {**LATTICE,
           "process": dict(algorithm="kcore", executor="process", workers=2),
           "async": dict(algorithm="bfs", mode="async", seed=3)}
#: a tallied kind -> the counter that counts its events
COUNTS = {"kernel_batch": "repro_kernel_batches_total",
          "dep_transfer": "repro_dep_transfers_total",
          "step_begin": "repro_steps_total"}


class TestCountsEqualTheTrace:
    @pytest.mark.parametrize("name", sorted(COUNTED))
    def test_untraced_hub_exports_what_a_traced_one_does(self, graph, name):
        """A hub with no tracer is handed counts, not events; it exports
        what a tracing hub on the same run does — bar the sum and the
        buckets of a wall-clock histogram — and its counts are the
        trace's events of the kind."""
        hubs = {}
        for traced in (False, True):
            hub = ObsHub(tracer=Tracer() if traced else None)
            with Session(graph, RunConfig(machines=4, obs=hub,
                                          **COUNTED[name])) as session:
                session.run()
            hubs[traced] = hub
        exported = {
            traced: {m["name"]: m for m in
                     hub.metrics.export_json()["metrics"]}
            for traced, hub in hubs.items()
        }
        assert exported[False].keys() == exported[True].keys()
        for family, metric in exported[True].items():
            untraced = exported[False][family]
            if family.endswith("_seconds"):  # wall clock: counts only
                assert metric["kind"] == "histogram"
                for sample in (*metric["samples"], *untraced["samples"]):
                    del sample["sum"], sample["buckets"]
            assert untraced == metric, family
        events = Counter(e["kind"] for e in hubs[True].tracer.events)
        for kind, family in COUNTS.items():
            counted = hubs[False].metrics.get(family)
            total = 0 if counted is None else sum(
                sample["value"] for sample in counted.samples()
            )
            assert total == events[kind], kind
        assert events["kernel_batch"] and events["step_begin"]

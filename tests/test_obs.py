"""Observability: tracer, metrics registry, hub, trace reconstruction.

The load-bearing property is *trace completeness*: a JSONL trace alone
must reconstruct the run's Counters bit-for-bit, so the cost-model
breakdown recomputed from the trace matches the live run exactly.
"""

import json

import numpy as np
import pytest

from repro.algorithms import bfs, mis
from repro.engine import make_engine
from repro.errors import ReproError
from repro.graph import erdos_renyi, rmat, to_undirected
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsHub,
    Tracer,
    attribution_rows,
    fill_run_metrics,
    read_trace,
    rebuild_counters,
    reconstruct_breakdown,
    registry_breakdown,
    summarize_events,
    validate_events,
)
from repro.runtime import SYMPLE_COST


@pytest.fixture(scope="module")
def graph():
    return to_undirected(erdos_renyi(300, 1800, seed=7))


def traced_run(graph, engine_kind="symple", num_machines=4, path=None):
    hub = ObsHub(tracer=Tracer(path=path))
    engine = make_engine(engine_kind, graph, num_machines, obs=hub)
    bfs(engine, 0)
    hub.run_end(engine)
    hub.close()
    return engine, hub


class TestTracer:
    def test_seq_monotone(self):
        t = Tracer()
        for i in range(5):
            event = t.emit("step_begin", phase=0, step=i)
        assert event["seq"] == 5
        seqs = [e["seq"] for e in t.events]
        assert seqs == sorted(seqs) == list(range(1, 6))

    def test_ring_eviction(self):
        t = Tracer(capacity=3)
        for i in range(5):
            t.emit("step_begin", phase=0, step=i)
        assert len(t) == 3
        assert t.dropped == 2
        assert [e["step"] for e in t.events] == [2, 3, 4]
        # seq numbers keep counting across evictions
        assert t.events[-1]["seq"] == 5

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ReproError):
            Tracer(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer(path=path) as t:
            t.emit("implicit_record", machines=4)
            t.emit("sync_update", record=0, bytes=128)
        events = read_trace(path)
        assert [e["kind"] for e in events] == ["implicit_record",
                                               "sync_update"]
        assert events[1]["bytes"] == 128

    def test_unused_tracer_writes_nothing(self, tmp_path):
        path = tmp_path / "never.jsonl"
        Tracer(path=str(path)).close()
        assert not path.exists()

    def test_numpy_values_serialize(self, tmp_path):
        path = str(tmp_path / "np.jsonl")
        with Tracer(path=path) as t:
            t.emit("sync_update", record=np.int64(0),
                   bytes=np.int64(64))
        assert read_trace(path)[0]["bytes"] == 64

    def test_to_jsonl_dump(self, tmp_path):
        t = Tracer()
        t.emit("implicit_record", machines=2)
        path = str(tmp_path / "dump.jsonl")
        t.to_jsonl(path)
        assert len(read_trace(path)) == 1

    def test_read_trace_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 1, "kind": "crash"\n')
        with pytest.raises(ReproError):
            read_trace(str(path))


class TestValidation:
    def test_real_trace_is_valid(self, graph, tmp_path):
        path = str(tmp_path / "run.jsonl")
        traced_run(graph, path=path)
        events = read_trace(path)
        assert validate_events(events) == []

    def test_unknown_kind(self):
        problems = validate_events([{"seq": 1, "kind": "martian"}])
        assert any("unknown kind" in p for p in problems)

    def test_missing_keys(self):
        problems = validate_events(
            [{"seq": 1, "kind": "dep_transfer", "src": 0}]
        )
        assert any("missing keys" in p for p in problems)

    def test_seq_must_increase(self):
        events = [
            {"seq": 2, "kind": "implicit_record", "machines": 2},
            {"seq": 1, "kind": "implicit_record", "machines": 2},
        ]
        assert any("strictly increasing" in p
                   for p in validate_events(events))

    def test_phase_end_needs_begin(self):
        events = [{"seq": 1, "kind": "phase_end", "phase": 0,
                   "mode": "pull", "steps": 1, "sync_bytes": 0,
                   "push_bytes": 0}]
        assert any("without phase_begin" in p
                   for p in validate_events(events))

    def test_step_end_array_lengths(self):
        events = [
            {"seq": 1, "kind": "phase_begin", "phase": 0, "mode": "pull",
             "engine": "symple", "machines": 4},
            {"seq": 2, "kind": "step_end", "phase": 0, "step": 0,
             "high_edges": [1, 2], "low_edges": [0] * 4,
             "high_vertices": [0] * 4, "low_vertices": [0] * 4,
             "update_bytes": [0] * 4, "dep_bytes": [0] * 4,
             "slowdown": [1.0] * 4},
        ]
        assert any("4-machine array" in p for p in validate_events(events))

    def test_run_end_summary_keys(self):
        events = [{"seq": 1, "kind": "run_end", "engine": "symple",
                   "machines": 4, "summary": {"edges_traversed": 0}}]
        problems = validate_events(events)
        assert any("penalty_time" in p for p in problems)
        assert any("messages_by_tag" in p for p in problems)

    def test_summarize_counts(self):
        events = [
            {"seq": 1, "kind": "step_begin", "phase": 0, "step": 0},
            {"seq": 2, "kind": "step_begin", "phase": 0, "step": 1},
            {"seq": 3, "kind": "crash", "machine": 0, "iteration": 1,
             "step": 0},
        ]
        assert summarize_events(events) == {"step_begin": 2, "crash": 1}


class TestMetrics:
    def test_counter_only_goes_up(self):
        c = Counter("x_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        with pytest.raises(ReproError):
            c.inc(-1)

    def test_labelled_counter(self):
        c = Counter("bytes_total", labels=("tag",))
        c.inc(10, tag="dep")
        c.inc(5, tag="update")
        c.inc(1, tag="dep")
        assert c.value(tag="dep") == 11
        with pytest.raises(ReproError):
            c.inc(1)  # missing label

    def test_gauge_set_and_inc(self):
        g = Gauge("depth")
        g.set(7)
        g.inc(3)
        assert g.value() == 10

    def test_histogram_cumulative_buckets(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        sample = h.samples()[0]
        assert sample["buckets"] == {"1": 1, "10": 2, "100": 3}
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(555.5)

    def test_histogram_quantile_interpolates(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        assert h.quantile(0.5) == 0.0 and h.mean() == 0.0
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.quantile(0.25) == pytest.approx(1.0)
        assert h.quantile(0.375) == pytest.approx(5.5)
        assert h.quantile(0.5) == pytest.approx(10.0)
        # past the last edge: the edge, as Prometheus reads +Inf
        assert h.quantile(1.0) == 100.0
        assert h.mean() == pytest.approx(555.5 / 4)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ReproError):
            Histogram("h", buckets=(10.0, 1.0))

    def test_registry_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a_total") is r.counter("a_total")
        with pytest.raises(ReproError):
            r.gauge("a_total")  # kind mismatch
        with pytest.raises(ReproError):
            r.counter("a_total", labels=("tag",))  # label mismatch

    def test_prometheus_export(self):
        r = MetricsRegistry()
        r.counter("repro_x_total", "help text", labels=("tag",)).inc(
            3, tag="dep"
        )
        r.histogram("repro_h", buckets=(1.0,)).observe(0.5)
        text = r.export_prometheus()
        assert "# HELP repro_x_total help text" in text
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{tag="dep"} 3' in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_count 1" in text

    def test_json_export_parses(self):
        r = MetricsRegistry()
        r.gauge("repro_g").set(2.5)
        payload = json.loads(r.export_json_str())
        (metric,) = payload["metrics"]
        assert metric["name"] == "repro_g"
        assert metric["samples"][0]["value"] == 2.5

    def test_fill_and_read_back_breakdown(self, graph):
        engine = make_engine("symple", graph, 4)
        mis(engine, seed=1)
        registry = MetricsRegistry()
        fill_run_metrics(
            registry, engine.counters, SYMPLE_COST, "symple"
        )
        live = SYMPLE_COST.breakdown(engine.counters, "symple")
        assert registry_breakdown(registry) == live
        assert registry.get("repro_comm_bytes_total").value(
            tag="dep"
        ) == engine.counters.bytes_by_tag["dep"]

    def test_breakdown_requires_fill(self):
        with pytest.raises(ReproError):
            registry_breakdown(MetricsRegistry())


class RecordingHook:
    def __init__(self):
        self.crashes = []
        self.others = []

    def on_crash(self, event):
        self.crashes.append(event)

    def on_event(self, event):
        self.others.append(event["kind"])


class TestObsHub:
    def test_coerce(self, tmp_path):
        hub = ObsHub()
        assert ObsHub.coerce(hub) is hub
        tracer = Tracer()
        assert ObsHub.coerce(tracer).tracer is tracer
        path_hub = ObsHub.coerce(str(tmp_path / "t.jsonl"))
        assert path_hub.tracer is not None
        with pytest.raises(ReproError):
            ObsHub.coerce(42)

    def test_hook_dispatch(self):
        hub = ObsHub()
        hook = RecordingHook()
        hub.register(hook)
        hub.register(hook)  # idempotent
        hub.crash(machine=1, iteration=2, step=0)
        hub.implicit_record(machines=4)
        assert len(hook.crashes) == 1
        assert hook.crashes[0]["machine"] == 1
        assert hook.others == ["implicit_record"]
        hub.unregister(hook)
        hub.crash(machine=0, iteration=3, step=0)
        assert len(hook.crashes) == 1

    def test_span_context_threads_through(self):
        hub = ObsHub(tracer=Tracer())
        hub.phase_begin(phase=3, mode="pull", engine="symple", machines=4)
        hub.step_begin(2)
        hub.dep_transfer(src=1, dst=0, nbytes=64)
        event = hub.tracer.events[-1]
        assert event["phase"] == 3 and event["step"] == 2
        assert hub.metrics.get("repro_dep_transfer_bytes_total").value() == 64

    def test_crash_clears_context(self):
        hub = ObsHub(tracer=Tracer())
        hub.phase_begin(phase=0, mode="pull", engine="symple", machines=2)
        hub.crash(machine=0, iteration=0, step=0)
        hub.dep_transfer(src=0, dst=1, nbytes=8)
        assert hub.tracer.events[-1]["phase"] is None

    def test_engine_counts_phases_and_kernels(self, graph):
        engine, hub = traced_run(graph)
        m = hub.metrics
        assert m.get("repro_phases_total").value(mode="pull") > 0
        assert m.get("repro_steps_total").value() > 0
        assert m.get("repro_dep_transfers_total").value() > 0
        batches = m.get("repro_kernel_batches_total")
        assert sum(s["value"] for s in batches.samples()) > 0

    def test_options_trace_attaches(self, graph, tmp_path):
        """A trace-file path passed as ``obs=`` attaches a tracer (engine
        options carry no path)."""
        from repro.engine import SympleGraphEngine
        from repro.partition import OutgoingEdgeCut

        path = str(tmp_path / "opt.jsonl")
        engine = SympleGraphEngine(
            OutgoingEdgeCut().partition(graph, 4), obs=path
        )
        assert engine.obs is not None
        bfs(engine, 0)
        engine.obs.run_end(engine)
        engine.obs.close()
        events = read_trace(path)
        assert validate_events(events) == []


class TestReconstruction:
    @pytest.mark.parametrize("engine_kind", ["symple", "gemini", "single"])
    def test_counters_rebuild_exactly(self, graph, engine_kind):
        engine, hub = traced_run(graph, engine_kind=engine_kind)
        rebuilt = rebuild_counters(hub.tracer.events)
        assert rebuilt.summary() == engine.counters.summary()

    @pytest.mark.parametrize("engine_kind", ["symple", "gemini"])
    def test_breakdown_matches_live_exactly(self, graph, engine_kind):
        engine, hub = traced_run(graph, engine_kind=engine_kind)
        live = engine.default_cost.breakdown(
            engine.counters, engine.cost_kind
        )
        rebuilt = reconstruct_breakdown(
            hub.tracer.events, engine.default_cost
        )
        assert rebuilt == live  # exact, not approximate

    def test_round_trip_through_file(self, graph, tmp_path):
        path = str(tmp_path / "rt.jsonl")
        engine, hub = traced_run(graph, path=path)
        events = read_trace(path)
        live = engine.default_cost.breakdown(
            engine.counters, engine.cost_kind
        )
        assert reconstruct_breakdown(events, engine.default_cost) == live

    def test_rebuild_requires_run_end(self):
        with pytest.raises(ReproError):
            rebuild_counters(
                [{"seq": 1, "kind": "implicit_record", "machines": 2}]
            )


class TestAttribution:
    @pytest.fixture(scope="class")
    def engine(self):
        g = to_undirected(rmat(scale=8, edge_factor=8, seed=3))
        engine = make_engine("symple", g, 4)
        mis(engine, seed=1)
        return engine

    def test_rows_cover_pull_iterations(self, engine):
        rows = attribution_rows(engine.counters, SYMPLE_COST)
        assert rows
        pulls = {
            i for i, rec in enumerate(engine.counters.iterations)
            if rec.mode == "pull"
        }
        assert {r["iteration"] for r in rows} == pulls
        for r in rows:
            assert r["compute"] >= 0
            assert r["dep_wait"] >= 0
            assert r["hidden_wait"] >= 0
            assert r["finish"] >= r["start"] or r["compute"] == 0

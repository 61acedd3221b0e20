"""Observability: tracer, metrics registry, hub, trace reconstruction.

The load-bearing property is *trace completeness*: a JSONL trace alone
must reconstruct the run's Counters bit-for-bit, so the cost-model
breakdown recomputed from the trace matches the live run exactly.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs, mis
from repro.engine import make_engine
from repro.errors import ReproError
from repro.graph import erdos_renyi, rmat, to_undirected
from repro.obs import (
    EVENT_KINDS,
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
from repro.obs.metrics import _prom_number
from repro.runtime import SYMPLE_COST


#: histogram edges to draw from: repeats, zero, infinities
EDGES = (float("-inf"), -3.0, 0.0, 1.0, 1.0, 2.5, 1e6, float("inf"))


def loop_quantile(buckets, cumulative, n, q):
    """The q-quantile of ``n`` observations read off ``cumulative``
    bucket counts, as ``Histogram.quantile`` documents it."""
    rank = q * n
    lower_edge, lower_count = 0.0, 0
    for edge, count in zip(buckets, cumulative):
        if count >= rank:
            if count == lower_count:
                return lower_edge
            share = (rank - lower_count) / (count - lower_count)
            return lower_edge + (edge - lower_edge) * share
        lower_edge, lower_count = edge, count
    return lower_edge


@pytest.fixture(scope="module")
def graph():
    return to_undirected(erdos_renyi(300, 1800, seed=7))


def traced_run(graph, engine_kind="symple", num_machines=4, path=None):
    hub = ObsHub(tracer=Tracer(path=path))
    engine = make_engine(engine_kind, graph, num_machines, obs=hub)
    bfs(engine, 0)
    hub.run_end(engine, engine.execution_time())
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

    @given(
        edges=st.lists(st.sampled_from(EDGES), min_size=1, max_size=6),
        values=st.lists(st.one_of(
            st.sampled_from(EDGES + (float("nan"),)),
            st.floats(-1e3, 1e7),
            st.integers(-5, 5),
        ), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_histogram_reads_as_the_per_edge_loop(self, edges, values):
        """Each observation is one search into per-bucket counts that
        the readers sum; every reading is what comparing each value
        with every edge gives: NaN in no bucket, +inf in no finite one,
        -inf in all of them, a value on an edge in that edge's bucket.
        A bulk observe of each half reads as observing its values one
        at a time."""
        registry, bulk = MetricsRegistry(), MetricsRegistry()
        h = registry.histogram("h", labels=("half",), buckets=sorted(edges))
        for i, value in enumerate(values):
            h.observe(value, half=str(i % 2))
        at_once = bulk.histogram("h", labels=("half",),
                                 buckets=sorted(edges))
        for half in ("0", "1"):
            at_once.observe_many(values[int(half)::2], half=half)
        samples, buckets = [], []
        for half in ("0", "1"):
            drawn = values[int(half)::2]
            if not drawn:
                continue
            loop = [sum(v <= b for v in drawn) for b in h.buckets]
            samples.append({
                "labels": {"half": half},
                "buckets": {_prom_number(b): c
                            for b, c in zip(h.buckets, loop)},
                "sum": sum(map(float, drawn)), "count": len(drawn),
            })
            buckets += [
                f'h_bucket{{half="{half}",le="{le}"}} {c}' for le, c in zip(
                    [*map(_prom_number, h.buckets), "+Inf"],
                    [*loop, len(drawn)],
                )
            ]
            for q in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
                want = loop_quantile(h.buckets, loop, len(drawn), q)
                for got in (h.quantile(q, half=half),
                            at_once.quantile(q, half=half)):
                    assert got == want or (got != got and want != want)
        for reg in (registry, bulk):
            (metric,) = reg.export_json()["metrics"]
            assert json.dumps(metric["samples"]) == json.dumps(samples)
            assert [line for line in reg.export_prometheus().splitlines()
                    if line.startswith("h_bucket")] == buckets

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
        total = SYMPLE_COST.execution_time(engine.counters, "symple")
        fill_run_metrics(registry, engine.counters, SYMPLE_COST, total)
        live = SYMPLE_COST.breakdown(engine.counters, total)
        assert registry_breakdown(registry) == live
        assert registry.get("repro_comm_bytes_total").value(
            tag="dep"
        ) == engine.counters.bytes_by_tag["dep"]

    def test_breakdown_requires_fill(self):
        with pytest.raises(ReproError):
            registry_breakdown(MetricsRegistry())


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

    def test_span_context_threads_through(self):
        hub = ObsHub(tracer=Tracer())
        hub.emit("phase_begin", phase=3, mode="pull", engine="symple",
                 machines=4)
        hub.emit("step_begin", step=2)
        hub.emit("dep_transfer", src=1, dst=0, bytes=64)
        event = hub.tracer.events[-1]
        assert event["phase"] == 3 and event["step"] == 2
        assert hub.metrics.get("repro_dep_transfer_bytes_total").value() == 64

    def test_crash_clears_context(self):
        hub = ObsHub(tracer=Tracer())
        hub.emit("phase_begin", phase=0, mode="pull", engine="symple",
                 machines=2)
        hub.emit("crash", machine=0, iteration=0, step=0)
        hub.emit("dep_transfer", src=0, dst=1, bytes=8)
        assert hub.tracer.events[-1]["phase"] is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="martian"):
            ObsHub().emit("martian")

    def test_families_appear_when_their_kind_fires(self):
        hub = ObsHub()  # no tracer: the metrics still move
        assert hub.metrics.names() == []
        hub.emit("mutation_apply", graph_version=2, inserts=3, deletes=0,
                 add_vertices=0, num_edges=10)
        m = hub.metrics
        assert m.names() == ["repro_graph_version",
                             "repro_mutated_edges_total",
                             "repro_mutations_total"]
        assert m.get("repro_mutated_edges_total").value(op="insert") == 3
        assert m.get("repro_mutated_edges_total").samples()[0] == {
            "labels": {"op": "delete"}, "value": 0.0}
        assert m.get("repro_graph_version").value() == 2

    def test_every_row_emits(self):
        """Each row's fields are enough to emit it, and its feeds agree
        with every other row's on a family's type and labels."""
        hub = ObsHub(tracer=Tracer())
        for kind, row in EVENT_KINDS.items():
            hub.emit(kind, **dict.fromkeys(row.fields, 1))
            assert set(row.required) <= set(hub.tracer.events[-1])
        assert set(hub.metrics.names()) == {
            feed.name for row in EVENT_KINDS.values() for feed in row.feeds
        }

    def test_untraced_hub_builds_no_step_payload(self, graph, monkeypatch):
        """``step_end`` feeds no metric, so a hub with no tracer (a
        served query's) is sent none and no step record is turned into
        lists; a tracing hub gets one per step, on every path that ends
        steps (circulant, BSP and push, and step at a time under a fault
        controller)."""
        from repro.api import RunConfig, Session
        from repro.fault import FaultPlan, StragglerFault
        from repro.runtime.counters import StepRecord

        calls = []
        payload = StepRecord.payload

        def counted(step):
            calls.append(step)
            return payload(step)

        monkeypatch.setattr(StepRecord, "payload", counted)
        straggler = FaultPlan(
            stragglers=(StragglerFault(machine=1, factor=2.5),)
        )
        for overrides in (dict(engine="symple"), dict(engine="gemini"),
                          dict(engine="symple", faults=straggler)):
            for hub in (ObsHub(), ObsHub(tracer=Tracer())):
                calls.clear()
                config = RunConfig(machines=4, algorithm="bfs", obs=hub,
                                   **overrides)
                with Session(graph, config) as session:
                    session.run()
                assert hub.metrics.get("repro_steps_total").value() > 0
                if hub.tracer is None:
                    assert calls == [], overrides
                else:
                    ends = [event for event in hub.tracer.events
                            if event["kind"] == "step_end"]
                    assert len(calls) == len(ends) > 0, overrides

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
        engine.obs.run_end(engine, engine.execution_time())
        engine.obs.close()
        events = read_trace(path)
        assert validate_events(events) == []


#: the kinds an untraced hub is handed as counts (kernel batches,
#: dependency hand-offs, steps, executor maps) or not at all (the kinds
#: that feed no metric)
TALLIED = {"kernel_batch", "dep_transfer", "step_begin", "exec_map_begin",
           "exec_map_end"}
UNFED = {kind for kind, row in EVENT_KINDS.items() if not row.feeds}


class TestHubCensus:
    """What the runtime hands a hub: a traced one every event, an
    untraced one (a served query's) counts — one tally per merged walk
    and per map — and none of the events that feed no metric."""

    @pytest.mark.parametrize("fields", [
        dict(algorithm="bfs"),
        dict(algorithm="kcore"),
        dict(engine="gemini", algorithm="bfs"),
    ], ids=["symple-bfs", "symple-kcore", "gemini-bfs"])
    def test_untraced_hub_is_handed_counts(self, graph, monkeypatch,
                                           fields):
        from collections import Counter as Tally

        from repro.api import RunConfig, Session
        from repro.runtime.counters import Counters

        emitted, summaries = Tally(), []
        emit, summary = ObsHub.emit, Counters.summary

        def counted_emit(hub, kind, **event):
            emitted[kind, hub.tracer is not None] += 1
            return emit(hub, kind, **event)

        def counted_summary(counters):
            summaries.append(counters)
            return summary(counters)

        monkeypatch.setattr(ObsHub, "emit", counted_emit)
        monkeypatch.setattr(Counters, "summary", counted_summary)
        hubs = {}
        for traced in (False, True):
            hub = ObsHub(tracer=Tracer() if traced else None)
            del summaries[:]
            with Session(graph, RunConfig(machines=4, obs=hub,
                                          **fields)) as session:
                session.run()
            hubs[traced] = hub, len(summaries)
        untraced = {kind for kind, traced in emitted if not traced}
        assert untraced and not untraced & (TALLIED | UNFED)
        assert hubs[False][1] == 0  # no run_end event was built
        assert hubs[True][1] == 1
        handed = {"kernel_batch", "step_begin", "run_end", "phase_end",
                  "exec_map_begin", "exec_map_end"}
        if fields.get("engine", "symple") == "symple":
            handed.add("dep_transfer")
        assert all(emitted[kind, True] > 0 for kind in handed)
        metrics = hubs[False][0].metrics
        for name in ("repro_steps_total", "repro_kernel_batches_total",
                     "repro_exec_maps_total", "repro_phases_total"):
            assert sum(s["value"] for s in
                       metrics.get(name).samples()) > 0, name

    def test_hubs_on_one_registry_lose_no_update(self):
        """Hubs over one registry (serve workers), each updating from
        its own thread, more threads than cores: the registry's lock
        keeps every read-modify-write, so the totals are exact."""
        import sys
        import threading

        registry = MetricsRegistry()
        hubs, rounds = 4, 10_000

        def work():
            hub = ObsHub(metrics=registry)
            for _ in range(rounds):
                hub.emit("dep_transfer", src=0, dst=1, bytes=3)
                hub.tally(kernel_batch=(2, {"kernel": "k",
                                            "seconds": (1.0, 1.0)}))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(hubs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        events = hubs * rounds
        get = registry.get
        assert get("repro_dep_transfers_total").value() == events
        assert get("repro_dep_transfer_bytes_total").value() == 3 * events
        assert get("repro_kernel_batches_total").value(
            kernel="k") == 2 * events
        (sample,) = get("repro_kernel_batch_seconds").samples()
        assert sample["count"] == sample["sum"] == 2 * events


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
            engine.counters, engine.execution_time()
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
            engine.counters, engine.execution_time()
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

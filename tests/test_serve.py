"""The serving layer: registry, broker, coalescer, HTTP server.

Covers the serve-specific contracts the ISSUE names: digest
equivalence (a served response's digest equals a direct
``Session.run`` of the executed config, coalesced batches included),
admission control (bounded queue -> 429 + Retry-After, draining ->
503), per-request timeouts (504), and graceful drain (admitted work
completes, workers exit).
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.api import RunConfig, Session
from repro.errors import ServeError
from repro.graph import rmat, to_undirected
from repro.serve import (
    Broker,
    BrokerClosed,
    GraphRegistry,
    QueryRequest,
    QueueFull,
    ServeApp,
    ServeMetrics,
    ServerThread,
    parse_graph_spec,
)
from repro.serve.batching import plan_batch

SPEC = "rmat:scale=7,edge_factor=8,seed=3"


@pytest.fixture(scope="module")
def graph():
    return to_undirected(rmat(scale=7, edge_factor=8, seed=3))


def _config(**overrides) -> RunConfig:
    base = dict(engine="symple", algorithm="bfs", machines=4, seed=0)
    base.update(overrides)
    return RunConfig(**base)


def _request(source, graph="g", **overrides) -> QueryRequest:
    return QueryRequest(
        graph=graph, config=_config(sources=(source,), **overrides)
    )


def _post(port, payload, path="/query"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            "POST", path, body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            json.loads(response.read())
    finally:
        conn.close()


def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


class TestGraphSpec:
    def test_rmat_spec_round_trips_deterministically(self):
        a, b = parse_graph_spec(SPEC), parse_graph_spec(SPEC)
        assert a.num_vertices == b.num_vertices == 128
        assert a.num_edges == b.num_edges

    def test_weighted_spec_supports_sssp(self):
        graph = parse_graph_spec("rmat:scale=6,edge_factor=6,seed=1,weighted=9")
        assert graph.is_weighted

    @pytest.mark.parametrize(
        "spec",
        [
            "nope",
            "rmat:edge_factor=8",
            "rmat:scale=six",
            "rmat:scale=6,bogus=1",
            "dataset:not-a-dataset",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ServeError):
            parse_graph_spec(spec)

    def test_registry_lifecycle(self, graph):
        registry = GraphRegistry()
        assert registry.default_name() is None
        registry.add("one", graph)
        assert registry.default_name() == "one"
        assert registry.get("one").graph is graph
        with pytest.raises(ServeError):
            registry.add("one", graph)
        with pytest.raises(ServeError):
            registry.get("missing")
        facts = registry.describe()[0]
        assert facts["num_vertices"] == graph.num_vertices
        assert facts["sample_sources"]
        registry.close()
        registry.close()  # idempotent, like the sessions underneath


class TestBatchPlanning:
    def test_same_base_config_shares_batch_key(self):
        a, b = _request(1), _request(2)
        assert a.batch_key == b.batch_key
        assert a.dedup_key != b.dedup_key

    def test_identical_requests_share_dedup_key(self):
        assert _request(1).dedup_key == _request(1).dedup_key

    def test_different_machine_counts_do_not_batch(self):
        assert _request(1).batch_key != _request(1, machines=8).batch_key

    def test_unsourced_requests_are_not_batchable(self):
        req = QueryRequest(graph="g", config=_config(algorithm="kcore"))
        assert req.batch_key is None

    def test_plan_batch_merges_sources_in_arrival_order(self):
        config, merged = plan_batch([_request(5), _request(2), _request(9)])
        assert config.sources == (5, 2, 9)
        assert merged

    def test_plan_batch_dedups_repeated_sources(self):
        config, merged = plan_batch([_request(3), _request(3), _request(1)])
        assert config.sources == (3, 1)
        assert merged

    def test_pure_dedup_batch_is_the_head_config(self):
        head = _request(3)
        config, merged = plan_batch([head, _request(3), _request(3)])
        assert config == head.config
        assert config.digest() == head.dedup_key
        assert not merged

    def test_singleton_executes_unchanged(self):
        head = _request(4)
        config, merged = plan_batch([head])
        assert config is head.config and not merged


class TestBroker:
    def test_overload_raises_queue_full(self):
        broker = Broker(max_depth=2)
        broker.submit(_request(1))
        broker.submit(_request(2, machines=8))
        with pytest.raises(QueueFull) as excinfo:
            broker.submit(_request(3))
        assert excinfo.value.depth == 2
        assert excinfo.value.retry_after > 0

    def test_closed_broker_rejects(self):
        broker = Broker()
        broker.close()
        with pytest.raises(BrokerClosed):
            broker.submit(_request(1))

    def test_batch_forms_across_the_lane(self):
        broker = Broker(max_depth=8)
        mergeable = [_request(i) for i in (1, 2, 3)]
        other = _request(1, machines=8)  # different base config
        for req in (mergeable[0], other, *mergeable[1:]):
            broker.submit(req)
        batch = broker.next_batch("g", timeout=1)
        assert batch == mergeable
        assert broker.depth() == 1
        assert broker.next_batch("g", timeout=1) == [other]

    def test_max_batch_caps_merging(self):
        broker = Broker(max_depth=8, max_batch=2)
        for i in range(4):
            broker.submit(_request(i))
        assert len(broker.next_batch("g", timeout=1)) == 2
        assert len(broker.next_batch("g", timeout=1)) == 2

    def test_cancelled_requests_are_culled(self):
        broker = Broker()
        stale, live = _request(1), _request(2)
        stale.cancelled = True
        broker.submit(stale)
        broker.submit(live)
        assert broker.next_batch("g", timeout=1) == [live]
        assert broker.depth() == 0

    def test_close_wakes_idle_worker(self):
        broker = Broker()
        got = []
        worker = threading.Thread(
            target=lambda: got.append(broker.next_batch("g"))
        )
        worker.start()
        time.sleep(0.05)
        broker.close()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert got == [None]


class TestDrain:
    def test_admitted_work_completes_after_drain(self, graph):
        """Graceful drain: close the gate, then answer everything queued."""
        registry = GraphRegistry()
        registry.add("g", graph)
        app = ServeApp(registry, max_depth=16)
        requests = [_request(i) for i in (1, 2, 3)]
        for req in requests:
            app.broker.submit(req)
        app.begin_drain()
        with pytest.raises(BrokerClosed):
            app.broker.submit(_request(4))
        app.start()  # workers spawn against an already-draining broker
        assert app.join_workers(timeout=60)
        digests = {req.future.result(timeout=1)["digest"]
                   for req in requests}
        assert len(digests) == 1  # one coalesced run answered all three
        app.close()

    def test_coalesced_digest_matches_direct_run(self, graph):
        """The served digest of a merged batch == direct Session.run."""
        registry = GraphRegistry()
        registry.add("g", graph)
        app = ServeApp(registry, max_depth=16)
        requests = [_request(i) for i in (5, 1, 5, 8)]
        for req in requests:
            app.broker.submit(req)
        app.begin_drain()
        app.start()
        assert app.join_workers(timeout=60)
        payloads = [req.future.result(timeout=1) for req in requests]
        executed = payloads[0]["executed_config"]
        assert executed["sources"] == [5, 1, 8]  # arrival order, deduped
        assert all(p["batch_size"] == 4 for p in payloads)
        assert all(p["coalesced"] for p in payloads)
        with Session(graph) as session:
            direct = session.run(RunConfig.from_dict(executed))
        assert {p["digest"] for p in payloads} == {direct.digest()}
        app.close()


    def test_sssp_batch_digest_matches_direct_run(self):
        """SSSP coalesces through the same sources machinery as BFS."""
        weighted = parse_graph_spec(
            "rmat:scale=6,edge_factor=6,seed=1,weighted=9"
        )
        registry = GraphRegistry()
        registry.add("w", weighted)
        app = ServeApp(registry, max_depth=8)
        requests = [
            QueryRequest(
                graph="w",
                config=_config(algorithm="sssp", sources=(s,)),
            )
            for s in (2, 7)
        ]
        for req in requests:
            app.broker.submit(req)
        app.begin_drain()
        app.start()
        assert app.join_workers(timeout=60)
        payloads = [req.future.result(timeout=1) for req in requests]
        executed = payloads[0]["executed_config"]
        assert executed["sources"] == [2, 7]
        with Session(weighted) as session:
            direct = session.run(RunConfig.from_dict(executed))
        assert {p["digest"] for p in payloads} == {direct.digest()}
        app.close()


@pytest.fixture(scope="module")
def server(graph):
    registry = GraphRegistry()
    registry.add("demo", graph, spec=SPEC)
    app = ServeApp(registry, max_depth=32, request_timeout=60.0)
    with ServerThread(app) as srv:
        yield srv


@pytest.fixture()
def mutable_server(graph):
    """A server of its own: the mutation tests change its graph."""
    registry = GraphRegistry()
    registry.add("demo", graph, spec=SPEC)
    with ServerThread(ServeApp(registry, request_timeout=60.0)) as srv:
        yield srv


def _graph_facts(port):
    status, body = _get(port, "/graphs")
    assert status == 200
    return json.loads(body)["graphs"][0]


class TestHttp:
    def test_mutate_bumps_version_and_edges(self, mutable_server):
        port = mutable_server.port
        before = _graph_facts(port)
        status, _, payload = _post(
            port, {"graph": "demo", "inserts": [[1, 9], [9, 1]]},
            path="/mutate",
        )
        assert status == 200
        assert payload["graph_version"] == before["graph_version"] + 1
        assert payload["num_edges"] == before["num_edges"] + 2
        assert "compacted" not in payload
        after = _graph_facts(port)
        assert after["graph_version"] == payload["graph_version"]
        assert after["num_edges"] == payload["num_edges"]

    @pytest.mark.parametrize("batch", [
        {"deletes": [[0, 0]]},  # the demo graph has no self-loop (0, 0)
        {"inserts": [[1.5, 9]]},
    ], ids=["absent-delete", "float-id"])
    def test_bad_mutation_400_changes_nothing(self, mutable_server, batch):
        port = mutable_server.port
        before = _graph_facts(port)
        status, _, payload = _post(
            port, {"graph": "demo", **batch}, path="/mutate"
        )
        assert status == 400
        assert payload["error"]
        assert _graph_facts(port) == before

    def test_healthz(self, server):
        status, body = _get(server.port, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["graphs"] == ["demo"]

    def test_graphs_endpoint_advertises_sources(self, server):
        status, body = _get(server.port, "/graphs")
        assert status == 200
        facts = json.loads(body)["graphs"][0]
        assert facts["name"] == "demo"
        assert facts["sample_sources"]

    def test_query_digest_matches_direct_run(self, server, graph):
        status, _, payload = _post(
            server.port,
            {"graph": "demo", "algorithm": "bfs", "machines": 4,
             "sources": [3]},
        )
        assert status == 200
        with Session(graph) as session:
            direct = session.run(
                RunConfig.from_dict(payload["executed_config"])
            )
        assert payload["digest"] == direct.digest()
        assert payload["result"]["algorithm"] == "bfs"
        assert payload["latency_seconds"] > 0

    def test_default_graph_and_flat_config(self, server):
        status, _, payload = _post(server.port, {"algorithm": "kcore",
                                                 "machines": 4})
        assert status == 200
        assert payload["graph"] == "demo"
        assert payload["result"]["extra"]["core_size"] >= 0

    def test_unknown_graph_404(self, server):
        status, _, payload = _post(
            server.port, {"graph": "nope", "algorithm": "bfs"}
        )
        assert status == 404
        assert "nope" in payload["error"]

    @pytest.mark.parametrize(
        "body",
        [
            {"algorithm": "warshall"},
            {"bogus_field": 1},
            {"machines": 0},
            {"obs": "trace.jsonl"},
            {"config": {"algorithm": "bfs"}, "stray": 1},
            {"sources": [1.5]},
            {"sources": ["2"]},
        ],
    )
    def test_bad_configs_400(self, server, body):
        body = {"graph": "demo", **body}
        status, _, payload = _post(server.port, body)
        assert status == 400
        assert payload["error"]

    def test_engine_options_cannot_name_a_server_file(self, server,
                                                      tmp_path):
        """Engine options carry no file path: a query naming one is
        refused and nothing is written on the server."""
        target = tmp_path / "written-by-query.jsonl"
        status, _, payload = _post(
            server.port,
            {"graph": "demo", "algorithm": "bfs", "engine": "symple",
             "options": {"trace": str(target)}},
        )
        assert status == 400
        assert "trace" in payload["error"]
        assert not target.exists()

    def test_concurrent_queries_all_digest_equivalent(self, server, graph):
        """Under concurrent load, whatever batches the coalescer
        formed, every response replays bit-identically."""
        results = [None] * 12
        def client(i):
            results[i] = _post(
                server.port,
                {"graph": "demo", "algorithm": "bfs", "machines": 4,
                 "sources": [i % 3]},
            )
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        by_config = {}
        for status, _, payload in results:
            assert status == 200
            key = json.dumps(payload["executed_config"], sort_keys=True)
            by_config.setdefault(key, set()).add(payload["digest"])
        with Session(graph) as session:
            for key, digests in by_config.items():
                assert len(digests) == 1
                direct = session.run(RunConfig.from_dict(json.loads(key)))
                assert digests == {direct.digest()}

    def test_metrics_endpoint_is_prometheus_text(self, server):
        status, body = _get(server.port, "/metrics")
        assert status == 200
        assert "# TYPE repro_serve_requests_total counter" in body
        assert "# TYPE repro_serve_batch_size histogram" in body
        # engine-level events of served runs land in the same registry
        assert "repro_phases_total" in body

    def test_stats_endpoint_reports_percentiles(self, server):
        status, body = _get(server.port, "/stats")
        payload = json.loads(body)
        assert status == 200
        assert payload["requests_ok"] >= 1
        assert payload["latency_p99"] >= payload["latency_p50"] > 0

    def test_stats_endpoint_reports_executor_pools(self, server):
        """Warm-pool numbers of each graph's session surface in /stats."""
        status, body = _get(server.port, "/stats")
        payload = json.loads(body)
        assert status == 200
        executors = payload["executors"]
        assert isinstance(executors, dict) and executors
        for per_graph in executors.values():
            for stats in per_graph.values():
                assert stats["kind"] in ("serial", "process")
                assert stats["workers"] >= 1

    def test_404_lists_routes(self, server):
        status, body = _get(server.port, "/nope")
        assert status == 404
        assert "/query" in body


class TestAdmissionOverHttp:
    def test_timeout_504_then_overload_429(self, graph):
        registry = GraphRegistry()
        registry.add("live", graph, spec=SPEC)
        app = ServeApp(registry, max_depth=1, request_timeout=60.0)
        with ServerThread(app) as srv:
            # "idle" has no worker thread: its lane only ever fills up
            registry.add("idle", graph)
            status, _, payload = _post(
                srv.port,
                {"graph": "idle", "algorithm": "bfs", "sources": [1],
                 "timeout": 0.2},
            )
            assert status == 504
            assert "deadline" in payload["error"]
            # the timed-out request still occupies the bounded queue
            # (it is culled at dequeue, not at timeout)
            status, headers, payload = _post(
                srv.port,
                {"graph": "idle", "algorithm": "bfs", "sources": [2]},
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert payload["queue_depth"] == 1

    def test_draining_rejects_with_503(self, graph):
        registry = GraphRegistry()
        registry.add("g", graph, spec=SPEC)
        app = ServeApp(registry, max_depth=8)
        with ServerThread(app) as srv:
            app.begin_drain()
            status, body = _get(srv.port, "/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "draining"
            status, headers, _ = _post(
                srv.port, {"graph": "g", "algorithm": "bfs", "sources": [1]}
            )
            assert status == 503
            assert "Retry-After" in headers


class TestServeMetrics:
    def test_snapshot_tracks_requests(self):
        metrics = ServeMetrics()
        metrics.batch_begin(3, [0.01, 0.02, 0.03])
        metrics.batch_end(0.5)
        for _ in range(3):
            metrics.request_done("ok", 0.1, coalesced=True)
        metrics.rejected()
        snap = metrics.snapshot()
        assert snap["requests_ok"] == 3
        assert snap["requests_rejected"] == 1
        assert snap["coalesced_requests"] == 3
        assert snap["runs"] == 1
        assert snap["mean_batch_size"] == 3
        # read off the histogram: inside the (0.05, 0.1] bucket
        assert 0.05 < snap["latency_p50"] <= snap["latency_p99"] <= 0.1

    def test_prometheus_export_zero_fills_statuses(self):
        text = ServeMetrics().export_prometheus()
        for status in ("ok", "error", "rejected", "draining", "timeout"):
            assert f'repro_serve_requests_total{{status="{status}"}} 0' \
                in text


class TestCli:
    def test_serve_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--graph", "demo=rmat:scale=5",
             "--max-depth", "8", "--port", "0"]
        )
        assert args.command == "serve"
        assert args.graph == ["demo=rmat:scale=5"]
        assert args.max_depth == 8

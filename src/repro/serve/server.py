"""The asyncio HTTP/JSON server and its per-graph worker threads.

Split of labor:

* the **event loop** (this module's protocol code) parses HTTP,
  admits requests into the :class:`~repro.serve.batching.Broker`
  (turning :class:`~repro.serve.batching.QueueFull` into 429 +
  Retry-After and a draining broker into 503), and awaits each
  request's future under the per-request timeout;
* one **worker thread per graph** drains that graph's lane batch by
  batch: :func:`~repro.serve.batching.plan_batch` merges the batch
  into a single :class:`~repro.api.RunConfig`, the entry's cached
  :class:`~repro.api.Session` executes it (partition, executor, and
  shared-memory topology reused run over run), and every request in
  the batch is answered with the run's result and canonical digest.

Endpoints
---------

``GET /healthz``
    200 ``{"status": "ok"}`` while serving, 503 ``"draining"`` after
    drain starts.  ``GET /readyz`` is an alias.
``GET /metrics``
    Prometheus text exposition of the shared registry: serve-level
    counters/histograms plus engine-level run metrics.
``GET /stats``
    JSON service numbers read off the ``/metrics`` registry (QPS,
    p50/p99 latency from the latency histogram, mean batch size).
``GET /graphs``
    The registry's advertised facts per graph, sample sources included.
``POST /graphs``
    Admin: load ``{"name": ..., "spec": ...}`` into the registry and
    start its worker.
``POST /query``
    Execute ``{"graph": ..., "config": {RunConfig fields}}`` (the
    config may also be spelled flat at the top level).  Responds with
    the run's metrics, the executed (possibly source-merged) config,
    and its ``digest`` — bit-identical to a direct ``Session.run`` of
    that config.
``POST /mutate``
    Apply ``{"graph": ..., "inserts": [[u, v], ...], "deletes":
    [[u, v], ...], "add_vertices": n}`` as one atomic mutation batch
    through :meth:`~repro.api.Session.mutate`.  Responds with the new
    graph version and shape; later queries run against the mutated
    topology (cached partitions are refreshed incrementally, executor
    shared-memory republished on the next run).

Graceful drain: SIGTERM (or :meth:`ServeApp.begin_drain`) closes the
broker, lets the workers finish every admitted request, then stops the
listener.  New queries during the drain get 503 + Retry-After.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import InvalidStateError
from typing import Any, Dict, List, Optional, Tuple

from dataclasses import asdict

from repro.api import RunConfig
from repro.errors import EngineError, ReproError, ServeError
from repro.graph.dynamic import MutationBatch
from repro.serve.batching import (
    Broker,
    BrokerClosed,
    QueryRequest,
    QueueFull,
    plan_batch,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import GraphRegistry

__all__ = ["ServeApp", "ServerThread", "serve_forever"]

#: request bodies beyond this get 413 instead of an allocation
MAX_BODY_BYTES = 1 << 20

#: RunConfig fields a query may set; live attachments are server-owned
_CONFIG_FIELDS = frozenset(
    (
        "engine", "algorithm", "machines", "seed", "options", "faults",
        "checkpointing", "executor", "workers", "verify", "bfs_roots",
        "kcore_k", "kmeans_rounds", "sources", "mode",
        "async_bucket_width",
    )
)

_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4; charset=utf-8"


class _HttpReply(Exception):
    """Early-exit reply raised by handlers (errors, rejections)."""

    def __init__(self, status: int, payload: Dict[str, Any],
                 retry_after: Optional[float] = None) -> None:
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload
        self.retry_after = retry_after


class ServeApp:
    """The service: registry + broker + metrics + worker threads."""

    def __init__(
        self,
        registry: GraphRegistry,
        max_depth: int = 64,
        max_batch: int = 64,
        request_timeout: float = 30.0,
        metrics: Optional[ServeMetrics] = None,
    ) -> None:
        if request_timeout <= 0:
            raise ServeError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        self.registry = registry
        self.broker = Broker(max_depth=max_depth, max_batch=max_batch)
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.request_timeout = request_timeout
        self._workers: Dict[str, threading.Thread] = {}
        self._workers_lock = threading.Lock()
        self._draining = threading.Event()
        self._started = time.time()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn one worker thread per registered graph."""
        for name in self.registry.names():
            self._ensure_worker(name)

    def _ensure_worker(self, name: str) -> None:
        with self._workers_lock:
            if name in self._workers:
                return
            worker = threading.Thread(
                target=self._worker, args=(name,),
                name=f"repro-serve-{name}", daemon=True,
            )
            self._workers[name] = worker
            worker.start()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop admitting; admitted requests still complete."""
        self._draining.set()
        self.broker.close()

    def join_workers(self, timeout: Optional[float] = None) -> bool:
        """Wait for the workers to drain their lanes; True if all exited."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._workers_lock:
            workers = list(self._workers.values())
        for worker in workers:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.perf_counter())
            )
            worker.join(remaining)
        return not any(w.is_alive() for w in workers)

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Drain, wait for the workers, release every graph session."""
        self.begin_drain()
        self.join_workers(timeout)
        self.registry.close()

    # -- worker side -------------------------------------------------------

    def _worker(self, name: str) -> None:
        entry = self.registry.get(name)
        # one hub per worker: per-run phase context is thread-local to
        # the worker, the registry behind it is the shared /metrics one
        hub = self.metrics.hub()
        while True:
            batch = self.broker.next_batch(name)
            self.metrics.queue_depth(self.broker.depth())
            if batch is None:
                return
            live = [req for req in batch if not req.cancelled]
            if not live:
                continue
            self._serve_batch(entry, live, hub)

    def _serve_batch(self, entry, batch: List[QueryRequest], hub) -> None:
        config, merged = plan_batch(batch)
        self.metrics.batch_begin(
            len(batch), [req.queue_wait for req in batch]
        )
        t0 = time.perf_counter()
        try:
            result = entry.session.run(config.replace(obs=hub))
        except Exception as exc:
            self.metrics.batch_end(time.perf_counter() - t0)
            for req in batch:
                try:
                    req.future.set_exception(exc)
                except InvalidStateError:  # pragma: no cover - timed out
                    pass
            return
        self.metrics.batch_end(time.perf_counter() - t0)
        digest = result.digest()
        body = result.to_dict()
        executed = config.to_dict()
        for req in batch:
            payload = {
                "id": req.id,
                "graph": entry.name,
                "digest": digest,
                "result": body,
                "executed_config": executed,
                "batch_size": len(batch),
                "coalesced": len(batch) > 1 or merged,
            }
            try:
                req.future.set_result(payload)
            except InvalidStateError:  # pragma: no cover - timed out
                pass

    # -- admission side ----------------------------------------------------

    def build_request(self, payload: Dict[str, Any]) -> QueryRequest:
        """Turn a /query JSON body into an admitted-shape request."""
        if not isinstance(payload, dict):
            raise _HttpReply(400, {"error": "request body must be an object"})
        payload = dict(payload)
        graph = payload.pop("graph", None) or self.registry.default_name()
        if graph is None:
            raise _HttpReply(
                400,
                {
                    "error": "request must name a graph",
                    "graphs": self.registry.names(),
                },
            )
        try:
            self.registry.get(graph)
        except ServeError as exc:
            raise _HttpReply(404, {"error": str(exc)}) from None
        fields = payload.pop("config", None)
        if fields is None:
            fields = payload  # flat spelling
        elif payload:
            raise _HttpReply(
                400,
                {"error": f"unexpected top-level keys {sorted(payload)}"},
            )
        if not isinstance(fields, dict):
            raise _HttpReply(400, {"error": "config must be an object"})
        unknown = set(fields) - _CONFIG_FIELDS
        if unknown:
            raise _HttpReply(
                400,
                {
                    "error": f"unknown config fields {sorted(unknown)}",
                    "allowed": sorted(_CONFIG_FIELDS),
                },
            )
        if "sources" in fields and fields["sources"] is not None:
            if isinstance(fields["sources"], int):
                fields["sources"] = [fields["sources"]]
        try:
            config = RunConfig.from_dict(fields)
        except (ReproError, TypeError, ValueError) as exc:
            raise _HttpReply(400, {"error": f"bad config: {exc}"}) from None
        return QueryRequest(graph=graph, config=config)

    async def query(self, payload: Dict[str, Any],
                    timeout: Optional[float] = None) -> Dict[str, Any]:
        """Admit, await, and shape one query (raises :class:`_HttpReply`)."""
        if self.draining:
            self.metrics.rejected("draining")
            raise _HttpReply(
                503,
                {"error": "server is draining; retry against a peer"},
                retry_after=5.0,
            )
        request = self.build_request(payload)
        timeout = (
            self.request_timeout
            if timeout is None
            else min(timeout, self.request_timeout)
        )
        try:
            self.broker.submit(request)
        except QueueFull as exc:
            self.metrics.rejected("rejected")
            raise _HttpReply(
                429,
                {"error": str(exc), "queue_depth": exc.depth},
                retry_after=exc.retry_after,
            ) from None
        except BrokerClosed as exc:
            self.metrics.rejected("draining")
            raise _HttpReply(
                503, {"error": str(exc)}, retry_after=5.0
            ) from None
        self.metrics.queue_depth(self.broker.depth())
        try:
            payload = await asyncio.wait_for(
                asyncio.wrap_future(request.future), timeout
            )
        except asyncio.TimeoutError:
            request.cancelled = True
            self.metrics.request_done("timeout", timeout)
            raise _HttpReply(
                504,
                {
                    "error": f"query missed its {timeout:g}s deadline",
                    "id": request.id,
                },
            ) from None
        except (EngineError, ReproError, ValueError) as exc:
            self.metrics.request_done("error", request.queue_wait)
            raise _HttpReply(
                400, {"error": str(exc), "id": request.id}
            ) from None
        except Exception as exc:  # engine bug: surface, don't hang
            self.metrics.request_done("error", request.queue_wait)
            raise _HttpReply(
                500, {"error": f"{type(exc).__name__}: {exc}",
                      "id": request.id}
            ) from None
        latency = time.perf_counter() - request.enqueued_at
        self.metrics.request_done(
            "ok", latency, coalesced=bool(payload.get("coalesced"))
        )
        payload["latency_seconds"] = latency
        return payload

    # -- routing -----------------------------------------------------------

    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, str, bytes, Optional[float]]:
        """Route one request; returns (status, content-type, body, retry)."""
        try:
            if method == "GET" and path in ("/healthz", "/readyz"):
                if self.draining:
                    return _json_reply(503, {"status": "draining"}, 5.0)
                return _json_reply(
                    200,
                    {
                        "status": "ok",
                        "graphs": self.registry.names(),
                        "queue_depth": self.broker.depth(),
                        "uptime_seconds": time.time() - self._started,
                    },
                )
            if method == "GET" and path == "/metrics":
                text = self.metrics.export_prometheus()
                return 200, _TEXT, text.encode("utf-8"), None
            if method == "GET" and path == "/stats":
                stats = dict(self.metrics.snapshot())
                stats["executors"] = {
                    entry.name: entry.session.executor_stats()
                    for entry in self.registry.entries()
                }
                return _json_reply(200, stats)
            if method == "GET" and path == "/graphs":
                return _json_reply(200, {"graphs": self.registry.describe()})
            if method == "POST" and path == "/graphs":
                return await self._admin_load(body)
            if method == "POST" and path == "/mutate":
                return await self._mutate(body)
            if method == "POST" and path == "/query":
                payload = _parse_json(body)
                timeout = None
                if isinstance(payload, dict) and "timeout" in payload:
                    try:
                        timeout = float(payload.pop("timeout"))
                    except (TypeError, ValueError):
                        raise _HttpReply(
                            400, {"error": "timeout must be a number"}
                        ) from None
                return _json_reply(200, await self.query(payload, timeout))
            return _json_reply(
                404,
                {
                    "error": f"no route for {method} {path}",
                    "routes": [
                        "GET /healthz", "GET /metrics", "GET /stats",
                        "GET /graphs", "POST /graphs", "POST /mutate",
                        "POST /query",
                    ],
                },
            )
        except _HttpReply as reply:
            return _json_reply(reply.status, reply.payload,
                               reply.retry_after)

    async def _admin_load(
        self, body: bytes
    ) -> Tuple[int, str, bytes, Optional[float]]:
        payload = _parse_json(body)
        if not isinstance(payload, dict) or not payload.get("name") \
                or not payload.get("spec"):
            raise _HttpReply(
                400, {"error": 'expected {"name": ..., "spec": ...}'}
            )
        if self.draining:
            raise _HttpReply(
                503, {"error": "server is draining"}, retry_after=5.0
            )
        loop = asyncio.get_running_loop()
        try:
            # graph build + partition can take a while: off the loop
            entry = await loop.run_in_executor(
                None, self.registry.load, payload["name"], payload["spec"]
            )
        except ServeError as exc:
            raise _HttpReply(400, {"error": str(exc)}) from None
        self._ensure_worker(entry.name)
        return _json_reply(201, {"loaded": entry.describe()})

    async def _mutate(
        self, body: bytes
    ) -> Tuple[int, str, bytes, Optional[float]]:
        payload = _parse_json(body)
        if not isinstance(payload, dict):
            raise _HttpReply(400, {"error": "request body must be an object"})
        if self.draining:
            raise _HttpReply(
                503, {"error": "server is draining"}, retry_after=5.0
            )
        payload = dict(payload)
        name = payload.pop("graph", None) or self.registry.default_name()
        if name is None:
            raise _HttpReply(
                400,
                {
                    "error": "mutation must name a graph",
                    "graphs": self.registry.names(),
                },
            )
        try:
            entry = self.registry.get(name)
        except ServeError as exc:
            raise _HttpReply(404, {"error": str(exc)}) from None
        try:
            batch = MutationBatch.from_dict(payload)
        except (ReproError, TypeError, ValueError) as exc:
            raise _HttpReply(
                400, {"error": f"bad mutation batch: {exc}"}
            ) from None
        loop = asyncio.get_running_loop()
        hub = self.metrics.hub()
        t0 = time.perf_counter()
        try:
            # delete resolution + partition refresh walk edge arrays:
            # off the event loop, like admin graph loads
            stats = await loop.run_in_executor(
                None, entry.session.mutate, batch, hub
            )
        except ReproError as exc:
            raise _HttpReply(400, {"error": str(exc)}) from None
        return _json_reply(
            200,
            {
                "graph": entry.name,
                "applied": asdict(stats),
                "graph_version": stats.version,
                "num_vertices": stats.num_vertices,
                "num_edges": stats.num_edges,
                "latency_seconds": time.perf_counter() - t0,
            },
        )


def _parse_json(body: bytes) -> Any:
    if not body:
        raise _HttpReply(400, {"error": "request body must be JSON"})
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise _HttpReply(400, {"error": f"bad JSON: {exc}"}) from None


def _json_reply(
    status: int, payload: Any, retry_after: Optional[float] = None
) -> Tuple[int, str, bytes, Optional[float]]:
    return status, _JSON, json.dumps(payload).encode("utf-8"), retry_after


_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request; None at EOF (keep-alive hang-up)."""
    line = await reader.readline()
    if not line.strip():
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise ServeError(f"malformed request line {line!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ServeError(f"request body of {length} bytes exceeds cap")
    body = await reader.readexactly(length) if length else b""
    return method, path.split("?", 1)[0], headers, body


async def _handle_connection(
    app: ServeApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve requests on one connection until hang-up (keep-alive)."""
    try:
        while True:
            try:
                request = await _read_request(reader)
            except (ServeError, asyncio.IncompleteReadError, ValueError):
                break
            if request is None:
                break
            method, path, headers, body = request
            status, ctype, payload, retry_after = await app.dispatch(
                method, path, body
            )
            head = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(payload)}",
            ]
            if retry_after is not None:
                head.append(f"Retry-After: {max(1, int(retry_after))}")
            close = headers.get("connection", "").lower() == "close"
            head.append(f"Connection: {'close' if close else 'keep-alive'}")
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
            )
            await writer.drain()
            if close:
                break
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):  # pragma: no cover
            pass


class ServerThread:
    """The server on a background thread, for tests and embedding.

    Context-manager protocol: ``__enter__`` starts the app's workers
    and the listener (``.port`` holds the bound port, 0 picks a free
    one), ``__exit__`` drains and closes everything.
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve-http", daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServeError("server thread failed to start in 30s")
        if self._error is not None:
            raise ServeError(f"server thread failed: {self._error}")
        return self

    async def _main(self) -> None:
        try:
            self.app.start()
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            server = await asyncio.start_server(
                lambda r, w: _handle_connection(self.app, r, w),
                self.host, self.port,
            )
        except BaseException as exc:  # pragma: no cover - bind failure
            self._error = exc
            self._ready.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop.wait()

    def stop(self, drain_timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        self.app.begin_drain()
        self.app.join_workers(drain_timeout)
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=drain_timeout)
        self._thread = None
        self.app.close()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_forever(app: ServeApp, host: str = "127.0.0.1",
                  port: int = 8571) -> int:
    """Run the server until SIGTERM/SIGINT, then drain gracefully."""

    async def _amain() -> None:
        app.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-posix
                pass
        server = await asyncio.start_server(
            lambda r, w: _handle_connection(app, r, w), host, port
        )
        bound = server.sockets[0].getsockname()[1]
        print(
            f"repro serve: listening on http://{host}:{bound} "
            f"(graphs: {', '.join(app.registry.names()) or 'none'})",
            flush=True,
        )
        await stop.wait()
        print("repro serve: draining...", flush=True)
        app.begin_drain()
        # workers finish every admitted request before the listener and
        # its pending responses go away
        await loop.run_in_executor(None, app.join_workers, 30.0)
        server.close()
        await server.wait_closed()

    try:
        asyncio.run(_amain())
    finally:
        app.close()
    print("repro serve: drained, bye", flush=True)
    return 0

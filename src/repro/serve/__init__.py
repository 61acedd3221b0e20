"""``repro.serve``: a long-lived graph query service.

The daemon the ROADMAP's service-layer item asks for: an asyncio
HTTP/JSON server multiplexing concurrent queries over shared
partitioned graphs.  Four pieces compose it:

* :class:`~repro.serve.registry.GraphRegistry` — named graphs, each
  loaded and partitioned once and bound to a caching
  :class:`~repro.api.Session`, so every request after the first reuses
  the partition and the executor (including the process executor's
  shared-memory CSR topology);
* :class:`~repro.serve.batching.Broker` — the bounded request queue
  with the dedup batcher: identical queued requests (same
  :meth:`~repro.api.RunConfig.digest`) ride one run;
* :class:`~repro.serve.metrics.ServeMetrics` — ObsHub-backed service
  metrics (request counts, queue depth, batch sizes, latency
  histograms) exported on ``/metrics`` in Prometheus text format;
* :class:`~repro.serve.server.ServeApp` — admission control (bounded
  queue depth with 429 + Retry-After, per-request timeouts, 503 while
  draining) and the HTTP endpoints, with graceful drain on SIGTERM.

Start one from the command line::

    python -m repro serve --graph s27 --port 8571

or programmatically (tests, notebooks)::

    from repro.serve import GraphRegistry, ServeApp, ServerThread

    registry = GraphRegistry()
    registry.load("demo", "rmat:scale=9,edge_factor=8,seed=3")
    with ServerThread(ServeApp(registry)) as server:
        ...  # POST http://127.0.0.1:{server.port}/query
"""

from repro.serve.batching import Broker, BrokerClosed, QueryRequest, QueueFull
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import GraphEntry, GraphRegistry, parse_graph_spec
from repro.serve.server import ServeApp, ServerThread, serve_forever

__all__ = [
    "Broker",
    "BrokerClosed",
    "GraphEntry",
    "GraphRegistry",
    "QueryRequest",
    "QueueFull",
    "ServeApp",
    "ServeMetrics",
    "ServerThread",
    "parse_graph_spec",
    "serve_forever",
]

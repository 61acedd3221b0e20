"""Named-graph registry: load and partition once, serve forever.

Every entry binds a graph to its own caching :class:`~repro.api.Session`,
so the expensive per-run artifacts — partitions per (strategy,
machines), executors per (backend, workers), the process executor's
shared-memory CSR topology — are built on the first query that needs
them and shared read-only by every request after it.  That is the whole
point of the daemon: the script workflow paid load + partition +
publish on every query; the registry pays it once per graph.

Graph *specs* are strings so the CLI and HTTP admin endpoint share one
format:

* a benchmark dataset short name — ``s27``, ``tw``, … (``dataset:``
  prefix optional);
* a generator spec — ``rmat:scale=11,edge_factor=8,seed=7`` with
  optional ``weighted=<seed>`` (adds seeded uniform edge weights, which
  SSSP queries need) and ``directed=1`` (skips symmetrization);
* an edge-list file — ``file:/path/to/graph.txt`` (whitespace-separated
  ``src dst [weight]`` lines, :func:`~repro.graph.io.load_edge_list`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.api import RunConfig, Session
from repro.errors import ServeError
from repro.graph.csr import CSRGraph

__all__ = ["GraphEntry", "GraphRegistry", "parse_graph_spec"]

#: how many example sources /graphs advertises so clients need not
#: guess which vertex ids are non-isolated
_SAMPLE_SOURCES = 64


def parse_graph_spec(spec: str) -> CSRGraph:
    """Build a graph from a registry spec string (see module docs)."""
    kind, _, rest = spec.partition(":")
    if kind == "dataset" or not rest:
        from repro.bench import DATASETS, dataset

        name = rest if kind == "dataset" else spec
        if name not in DATASETS:
            raise ServeError(
                f"unknown dataset {name!r} in graph spec {spec!r}; "
                f"available: {sorted(DATASETS)}"
            )
        return dataset(name)
    if kind == "rmat":
        from repro.graph.generators import random_weights, rmat
        from repro.graph.transform import to_undirected

        params: Dict[str, int] = {}
        for pair in rest.split(","):
            key, _, value = pair.partition("=")
            key = key.strip()
            try:
                params[key] = int(value)
            except ValueError:
                raise ServeError(
                    f"bad rmat parameter {pair!r} in graph spec {spec!r}; "
                    "expected key=integer"
                ) from None
        allowed = {"scale", "edge_factor", "seed", "weighted", "directed"}
        unknown = set(params) - allowed
        if unknown or "scale" not in params:
            raise ServeError(
                f"graph spec {spec!r} must set scale= and may set "
                f"{sorted(allowed - {'scale'})}; got {sorted(params)}"
            )
        weighted = params.pop("weighted", None)
        directed = params.pop("directed", 0)
        graph = rmat(**params)
        if not directed:
            graph = to_undirected(graph)
        if weighted is not None:
            graph = random_weights(graph, seed=weighted, low=0.1, high=1.0)
        return graph
    if kind == "file":
        from repro.graph.io import load_edge_list

        return load_edge_list(rest)
    raise ServeError(
        f"unknown graph spec {spec!r}; expected a dataset name, "
        "rmat:scale=...,edge_factor=...,seed=..., or file:/path"
    )


@dataclass
class GraphEntry:
    """One served graph: the CSR, its session, and advertisable facts."""

    name: str
    graph: CSRGraph
    spec: str
    session: Session = field(init=False)
    loaded_at: float = field(init=False)

    def __post_init__(self) -> None:
        self.session = Session(self.graph)
        self.loaded_at = time.time()

    def describe(self) -> Dict[str, object]:
        """JSON-ready facts for the ``/graphs`` endpoint.

        Reads the session's *current* snapshot, not the load-time CSR,
        so the advertised shape tracks ``POST /mutate``.
        """
        graph, version = self.session._graph_snapshot()
        degrees = graph.out_degrees()
        sample = np.flatnonzero(degrees > 0)[:_SAMPLE_SOURCES]
        return {
            "name": self.name,
            "spec": self.spec,
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
            "weighted": bool(graph.is_weighted),
            "graph_version": int(version),
            "sample_sources": [int(v) for v in sample],
        }

    def close(self) -> None:
        self.session.close()


class GraphRegistry:
    """Thread-safe name -> :class:`GraphEntry` mapping."""

    def __init__(self) -> None:
        self._entries: Dict[str, GraphEntry] = {}
        self._lock = threading.Lock()

    def load(self, name: str, spec: str) -> GraphEntry:
        """Build the graph for ``spec`` and register it under ``name``."""
        return self.add(name, parse_graph_spec(spec), spec=spec)

    def add(self, name: str, graph: CSRGraph,
            spec: str = "<programmatic>") -> GraphEntry:
        """Register an already-built graph under ``name``."""
        if not name:
            raise ServeError("graph name must be non-empty")
        entry = GraphEntry(name=name, graph=graph, spec=spec)
        with self._lock:
            if name in self._entries:
                raise ServeError(f"graph {name!r} is already registered")
            self._entries[name] = entry
        return entry

    def get(self, name: str) -> GraphEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ServeError(
                f"unknown graph {name!r}; registered: {self.names()}"
            )
        return entry

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> List[GraphEntry]:
        with self._lock:
            return [self._entries[name] for name in sorted(self._entries)]

    def describe(self) -> List[Dict[str, object]]:
        return [entry.describe() for entry in self.entries()]

    def default_name(self) -> Optional[str]:
        """The only graph's name, when exactly one is registered.

        Lets single-graph deployments omit ``graph`` in requests.
        """
        names = self.names()
        return names[0] if len(names) == 1 else None

    def close(self) -> None:
        """Close every entry's session (idempotent, like the sessions)."""
        for entry in self.entries():
            entry.close()

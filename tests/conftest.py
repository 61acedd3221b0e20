"""Shared fixtures: deterministic graphs and engine factories."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    DGaloisEngine,
    GeminiEngine,
    SingleThreadEngine,
    SympleGraphEngine,
    SympleOptions,
)
from repro.engine.fastpath import FastPaths
from repro.graph import rmat, to_undirected
from repro.partition import CartesianVertexCut, OutgoingEdgeCut


@pytest.fixture(scope="session")
def small_graph():
    """Undirected skewed graph, ~500 vertices — the workhorse fixture."""
    return to_undirected(rmat(scale=9, edge_factor=12, seed=42))


@pytest.fixture(scope="session")
def tiny_graph():
    """Undirected graph small enough for exhaustive oracles."""
    return to_undirected(rmat(scale=6, edge_factor=6, seed=7))


@pytest.fixture
def interpreted(monkeypatch):
    """The scalar oracles, with every fast path off: each pull on the
    per-vertex interpreter, each update on the scalar slot loop, each
    push on the per-edge loop.  ``interpreted(engine)`` switches one
    engine and returns it; ``interpreted()`` switches every engine for
    the rest of the test, those a ``Session`` builds included."""

    def off(engine=None):
        owner = FastPaths if engine is None else engine.fastpaths
        monkeypatch.setattr(owner, "plan", lambda *args, **kwargs: None)
        return engine

    return off


@pytest.fixture
def engines(small_graph):
    """Fresh engines of every kind over the same graph."""
    return make_all_engines(small_graph, num_machines=4)


def make_all_engines(graph, num_machines=4, threshold=8):
    """Engine set used by equivalence tests (low threshold so the
    differentiated path actually exercises on small graphs)."""
    options = SympleOptions(degree_threshold=threshold)
    return {
        "gemini": GeminiEngine(OutgoingEdgeCut().partition(graph, num_machines)),
        "symple": SympleGraphEngine(
            OutgoingEdgeCut().partition(graph, num_machines), options=options
        ),
        "dgalois": DGaloisEngine(
            CartesianVertexCut().partition(graph, num_machines)
        ),
        "single": SingleThreadEngine(graph),
    }


def assert_valid_bfs(graph, result, root):
    """Every visited vertex's parent edge exists and depths are layered."""
    assert result.visited[root]
    assert result.depth[root] == 0
    for v in np.flatnonzero(result.visited):
        v = int(v)
        if v == root:
            continue
        parent = int(result.parent[v])
        assert result.visited[parent]
        assert result.depth[v] == result.depth[parent] + 1
        assert parent in set(graph.in_neighbors(v).tolist())

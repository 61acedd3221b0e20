"""Alias-method weighted sampling (Walker/Vose).

The paper's footnote 3: "There are other sampling algorithms, such as
the alias method.  It builds [an] alias table ... to exhibit a similar
pattern that searches [the] prefix-sum array."  This module provides
the comparator: O(degree) table construction per vertex, O(1) draws —
the right tool when many samples are drawn per vertex, whereas the
paper's prefix-sum scan (one pass, break at the crossing) wins for the
single-sample-per-vertex workload the evaluation uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = ["AliasTable", "build_alias_tables", "sample_neighbors_alias"]


@dataclass
class AliasTable:
    """Vose alias table over an item set with given weights."""

    items: np.ndarray
    prob: np.ndarray  # acceptance probability per slot
    alias: np.ndarray  # fallback item index per slot

    @classmethod
    def build(cls, items: Sequence[int], weights: Sequence[float]) -> "AliasTable":
        items = np.asarray(items, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if items.size != weights.size:
            raise GraphError("items and weights must be parallel")
        if items.size == 0:
            raise GraphError("cannot build an alias table over nothing")
        if np.any(weights <= 0):
            raise GraphError("alias weights must be strictly positive")

        n = items.size
        scaled = weights * n / weights.sum()
        prob = np.ones(n)
        alias = np.arange(n)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = scaled[l] + scaled[s] - 1.0
            (small if scaled[l] < 1.0 else large).append(l)
        for i in small + large:
            prob[i] = 1.0
        return cls(items=items, prob=prob, alias=alias)

    def draw(self, rng: np.random.Generator) -> int:
        """One O(1) weighted draw."""
        slot = int(rng.integers(0, self.items.size))
        if rng.random() < self.prob[slot]:
            return int(self.items[slot])
        return int(self.items[self.alias[slot]])

    def draw_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        slots = rng.integers(0, self.items.size, size=count)
        accept = rng.random(count) < self.prob[slots]
        chosen = np.where(accept, slots, self.alias[slots])
        return self.items[chosen]


def build_alias_tables(
    graph: CSRGraph, vertex_weights: np.ndarray
) -> dict[int, AliasTable]:
    """One alias table per vertex with in-edges (the construction step
    whose prefix-sum search shares the paper's code pattern)."""
    weights = np.asarray(vertex_weights, dtype=np.float64)
    tables: dict[int, AliasTable] = {}
    for v in range(graph.num_vertices):
        nbrs = graph.in_neighbors(v)
        if nbrs.size:
            tables[v] = AliasTable.build(nbrs, weights[nbrs])
    return tables


def sample_neighbors_alias(
    graph: CSRGraph,
    vertex_weights: np.ndarray,
    seed: int = 0,
    draws_per_vertex: int = 1,
) -> np.ndarray:
    """Single-machine comparator for :func:`repro.algorithms.sample_neighbors`.

    Returns an array of shape ``(num_vertices, draws_per_vertex)`` with
    -1 for vertices without in-edges.
    """
    rng = np.random.default_rng(seed)
    tables = build_alias_tables(graph, vertex_weights)
    out = np.full((graph.num_vertices, draws_per_vertex), -1, dtype=np.int64)
    for v, table in tables.items():
        out[v] = table.draw_many(rng, draws_per_vertex)
    return out

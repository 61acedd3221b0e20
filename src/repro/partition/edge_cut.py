"""Edge-cut partitioners.

*Outgoing edge-cut* (Gemini, used by SympleGraph): all outgoing edges of
a vertex live on its master machine, so edge ``(u, v)`` is stored on
``master(u)`` and pull-mode processing of ``v`` is scattered across the
machines owning its in-neighbors — exactly the situation that breaks
loop-carried dependency in existing frameworks.

*Incoming edge-cut*: edge ``(u, v)`` is stored on ``master(v)``; all
in-edges of a vertex are local, so the dependency problem vanishes (the
paper notes this partition is rarely used due to load imbalance —
reproduced here for the applicability discussion in Section 2.3).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.base import Partition, Partitioner
from repro.partition.chunking import balanced_chunks, chunk_of

__all__ = ["OutgoingEdgeCut", "IncomingEdgeCut"]


class OutgoingEdgeCut(Partitioner):
    """Gemini-style chunked outgoing edge-cut.

    Masters are assigned by balanced contiguous chunking over the hybrid
    load ``alpha + in_degree`` (pull-mode work); edge ``(u, v)`` is owned
    by ``master(u)``.  The owners follow from the masters, so the
    partition stores none (:class:`~repro.partition.base.Partition`).
    """

    name = "outgoing-edge-cut"

    def __init__(self, alpha: float = 8.0) -> None:
        self.alpha = alpha

    def partition(self, graph: CSRGraph, num_machines: int) -> Partition:
        self._check_machines(num_machines)
        boundaries = balanced_chunks(
            graph.in_degrees(), num_machines, alpha=self.alpha
        )
        master_of = chunk_of(boundaries, np.arange(graph.num_vertices))
        return Partition(
            graph, master_of, None, None, self.name, num_machines
        )


class IncomingEdgeCut(Partitioner):
    """Incoming edge-cut: every in-edge of a vertex is on its master.

    The masters of :class:`OutgoingEdgeCut`; edge ``(u, v)`` is owned by
    ``master(v)``.
    """

    name = "incoming-edge-cut"

    def __init__(self, alpha: float = 8.0) -> None:
        self.alpha = alpha

    def partition(self, graph: CSRGraph, num_machines: int) -> Partition:
        self._check_machines(num_machines)
        boundaries = balanced_chunks(
            graph.in_degrees(), num_machines, alpha=self.alpha
        )
        master_of = chunk_of(boundaries, np.arange(graph.num_vertices))
        return Partition(
            graph, master_of, None, None, self.name, num_machines
        )

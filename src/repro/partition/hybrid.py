"""PowerLyra-style hybrid cut.

The paper positions differentiated *dependency propagation* as
orthogonal to PowerLyra's differentiated *partitioning* (Section 5.2):
PowerLyra keeps low-degree vertices' in-edges together (edge-cut
locality) while spreading high-degree vertices' edges (vertex-cut
balance).  Implementing it lets the test-suite demonstrate that claim:
SympleGraph's dependency machinery composes with a hybrid partition
exactly as with a plain edge-cut.

Placement rule for edge ``(u, v)``:

* ``in_degree(v) < threshold`` — low-degree destination: the edge goes
  to ``master(v)`` (incoming edge-cut locality; a pull of ``v`` is
  fully local);
* otherwise — high-degree destination: the edge goes to ``master(u)``
  (spread across the sources' machines, like the outgoing edge-cut).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.base import Partition, Partitioner, edge_endpoints
from repro.partition.chunking import balanced_chunks, chunk_of

__all__ = ["HybridCut"]

DEFAULT_HYBRID_THRESHOLD = 32


class HybridCut(Partitioner):
    """Differentiated placement by destination degree (PowerLyra)."""

    name = "hybrid-cut"

    def __init__(
        self, threshold: int = DEFAULT_HYBRID_THRESHOLD, alpha: float = 8.0
    ) -> None:
        self.threshold = threshold
        self.alpha = alpha

    def partition(self, graph: CSRGraph, num_machines: int) -> Partition:
        self._check_machines(num_machines)
        boundaries = balanced_chunks(
            graph.in_degrees(), num_machines, alpha=self.alpha
        )
        master_of = chunk_of(boundaries, np.arange(graph.num_vertices))
        high = graph.in_degrees() >= self.threshold

        def owner(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
            if src.size == 0:
                return src
            return np.where(high[dst], master_of[src], master_of[dst])

        (in_src, in_dst), (out_src, out_dst) = edge_endpoints(graph)
        return Partition(
            graph,
            master_of,
            in_edge_owner=owner(in_src, in_dst),
            out_edge_owner=owner(out_src, out_dst),
            kind=self.name,
            num_machines=num_machines,
        )

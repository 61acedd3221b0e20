"""Single-thread reference engine.

Runs the signal-slot program sequentially on one machine.  Serves two
purposes:

* the *semantic oracle*: with one machine, local breaks are the true
  loop-carried dependency, so its outputs define correct results and
  its edge counts equal SympleGraph's precise counts (Definition 2.4);
* the *COST baseline* (McSherry et al., reproduced in Section 7.4):
  timed with the lean single-thread cost preset standing in for
  Galois/GAPBS hand-optimized codes.
"""

from __future__ import annotations

from repro.engine.gemini import GeminiEngine
from repro.graph.csr import CSRGraph
from repro.partition.edge_cut import OutgoingEdgeCut
from repro.runtime.cost_model import SINGLE_THREAD_COST, CostModel

__all__ = ["SingleThreadEngine"]


class SingleThreadEngine(GeminiEngine):
    """Sequential oracle engine (one machine, no communication)."""

    kind = "single"
    cost_kind = "single"

    def __init__(
        self,
        graph: CSRGraph,
        cost_model: CostModel = SINGLE_THREAD_COST,
        obs=None,
        executor=None,
        verify: str = "off",
    ) -> None:
        partition = OutgoingEdgeCut().partition(graph, 1)
        super().__init__(
            partition, cost_model, obs=obs, executor=executor,
            verify=verify,
        )

"""D-Galois / Gluon baseline engine (Dathathri et al., PLDI'18).

Structural model of the comparison system: bulk-synchronous execution
over a Cartesian vertex-cut, with Gluon's partition-agnostic
synchronization substrate.  Because a vertex-cut splits both edge
directions, the substrate must run a *reduce* (mirror -> master) and a
*broadcast* (master -> all mirrors) phase every round — the engine's
``sync_scope = "both"`` and its cost preset reflect that.  No
dependency propagation; local breaks are again only local.
"""

from __future__ import annotations

from repro.engine.base import BaseEngine
from repro.partition.base import Partition
from repro.runtime.cost_model import DGALOIS_COST, CostModel

__all__ = ["DGaloisEngine"]


class DGaloisEngine(BaseEngine):
    """BSP engine over a vertex-cut with reduce+broadcast sync."""

    kind = "dgalois"
    cost_kind = "dgalois"
    supports_dependency = False
    sync_scope = "both"

    def __init__(
        self,
        partition: Partition,
        cost_model: CostModel = DGALOIS_COST,
        obs=None,
        executor=None,
        verify: str = "off",
    ) -> None:
        super().__init__(
            partition, cost_model, obs=obs, executor=executor,
            verify=verify,
        )

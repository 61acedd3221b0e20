"""Gemini baseline engine (Zhu et al., OSDI'16).

Dense pull: every machine scans its local in-edges of every active
destination vertex *independently and in parallel*, running the
original (un-instrumented) signal UDF.  A machine's local ``break``
only stops its own scan — the loop-carried dependency is an "illusion"
(paper Section 1): other machines keep traversing and keep sending
updates the master will discard.  This engine is the measurement
baseline for Tables 2-6.
"""

from __future__ import annotations

from repro.engine.base import BaseEngine
from repro.partition.base import Partition
from repro.runtime.cost_model import GEMINI_COST, CostModel

__all__ = ["GeminiEngine"]


class GeminiEngine(BaseEngine):
    """BSP signal-slot engine without dependency propagation."""

    kind = "gemini"
    cost_kind = "gemini"
    supports_dependency = False
    supports_async = True

    def __init__(
        self,
        partition: Partition,
        cost_model: CostModel = GEMINI_COST,
        obs=None,
        executor=None,
        verify: str = "off",
    ) -> None:
        super().__init__(
            partition, cost_model, obs=obs, executor=executor,
            verify=verify,
        )

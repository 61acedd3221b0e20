"""Simulated distributed runtime: bitmaps, counters, network, cost model."""

from repro.runtime.bitmap import Bitmap
from repro.runtime.cost_model import (
    DGALOIS_COST,
    GEMINI_COST,
    SINGLE_THREAD_COST,
    SYMPLE_COST,
    CostModel,
    StepTimeline,
)
from repro.runtime.counters import Counters, IterationRecord, StepRecord
from repro.runtime.network import SimulatedNetwork
from repro.runtime.simulation import EventLog, simulate_circulant_iteration

__all__ = [
    "EventLog",
    "simulate_circulant_iteration",
    "StepTimeline",
    "Bitmap",
    "CostModel",
    "GEMINI_COST",
    "SYMPLE_COST",
    "DGALOIS_COST",
    "SINGLE_THREAD_COST",
    "Counters",
    "IterationRecord",
    "StepRecord",
    "SimulatedNetwork",
]

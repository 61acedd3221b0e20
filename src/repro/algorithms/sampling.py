"""Weighted neighbor sampling (paper Figure 3d).

For every vertex, pick one incoming neighbor with probability
proportional to the neighbor's weight, by scanning the neighbor
sequence and stopping where the running prefix sum crosses a uniform
random threshold.  The prefix sum is loop-carried *data* dependency —
4 bytes per vertex of dependency traffic, which is why sampling is the
one algorithm whose total communication can exceed Gemini's (Table 6).

Engines without dependency propagation cannot break early (a machine
never knows the weight mass accumulated on earlier machines), so the
Gemini path scans everything, ships per-machine partial sums to the
master, and pays a second targeted scan on the machine that owns the
crossing — the reference two-phase implementation.  D-Galois has no
reference implementation (Table 4 reports N/A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.engine.base import BaseEngine
from repro.engine.single_thread import SingleThreadEngine
from repro.engine.state import StateStore
from repro.errors import UnsupportedAlgorithmError
from repro.fault.program import VertexProgram, run_program
from repro.graph.transform import with_vertex_weights
from repro.runtime.counters import IterationRecord, StepRecord

__all__ = [
    "sample_neighbors",
    "sampling_signal",
    "SamplingProgram",
    "SamplingResult",
]


def sampling_signal(v, nbrs, s, emit):
    """Stop where the prefix sum of weights crosses the threshold."""
    weight = 0.0
    for u in nbrs:
        weight += s.weight[u]
        if weight >= s.r[v]:
            emit(u)
            break


def _scan_all_signal(v, nbrs, s, emit):
    """Gemini phase 1: full local scan, emit the local weight mass.

    Delta-style (emit what this scan added) so the mass is not
    re-reported if a machine ever resumes from carried state.
    """
    total = 0.0
    start = total
    for u in nbrs:
        total += s.weight[u]
    emit(total - start)


def _select_slot(v, value, s):
    if s.select[v] >= 0:
        return False
    s.select[v] = int(value)
    return True


@dataclass
class SamplingResult:
    """Output of one sampling pass."""

    select: np.ndarray  # chosen in-neighbor per vertex, -1 if none
    thresholds: np.ndarray

    @property
    def sampled_count(self) -> int:
        return int((self.select >= 0).sum())


class SamplingProgram(VertexProgram):
    """One sampling pass; the single :meth:`step` is the whole pass
    (one dependency pull, or the Gemini two-phase scan)."""

    def __init__(self, vertex_weights: np.ndarray | None = None,
                 seed: int = 0) -> None:
        self.vertex_weights = vertex_weights
        self.seed = int(seed)
        self._has_in: Optional[np.ndarray] = None

    def setup(self, engine: BaseEngine, ctx: Dict[str, Any]) -> StateStore:
        if engine.kind == "dgalois":
            raise UnsupportedAlgorithmError(
                "graph sampling has no D-Galois reference implementation"
            )
        graph = engine.graph
        n = graph.num_vertices
        weights = (
            self.vertex_weights
            if self.vertex_weights is not None
            else with_vertex_weights(n, seed=self.seed)
        )
        if np.any(weights <= 0):
            raise ValueError("vertex weights must be strictly positive")

        # Total in-weight per vertex and the per-vertex uniform threshold.
        totals = np.zeros(n, dtype=np.float64)
        has_in = graph.in_degrees() > 0
        if graph.num_edges:
            sums = np.add.reduceat(weights[graph.in_indices], graph.in_indptr[:-1][has_in])
            totals[has_in] = sums
        rng = np.random.default_rng(self.seed + 1)
        # Keep strictly below the total so the crossing always exists even
        # under floating-point reassociation across machines.
        r = rng.uniform(0.0, 1.0, size=n) * totals * (1.0 - 1e-12)
        self._has_in = has_in

        s = engine.new_state()
        s.set("weight", np.asarray(weights, dtype=np.float64))
        s.set("r", r)
        s.add_array("select", np.int64, -1)
        return s

    def step(self, engine: BaseEngine, s: StateStore,
             ctx: Dict[str, Any]) -> bool:
        active = self._has_in.copy()
        if engine.supports_dependency or isinstance(engine, SingleThreadEngine) or engine.num_machines == 1:
            engine.pull(
                sampling_signal,
                _select_slot,
                s,
                active,
                update_bytes=8,
                sync_bytes=0,
                dep_data_bytes=4,
                allow_differentiated=False,
            )
        else:
            _gemini_two_phase(engine, s, active)
        return False

    def result(self, engine: BaseEngine, s: StateStore,
               ctx: Dict[str, Any]) -> SamplingResult:
        return SamplingResult(select=s.select.copy(), thresholds=s.r.copy())


def sample_neighbors(
    engine: BaseEngine,
    vertex_weights: np.ndarray | None = None,
    seed: int = 0,
) -> SamplingResult:
    """Sample one weighted in-neighbor for every vertex with in-edges."""
    return run_program(SamplingProgram(vertex_weights, seed), engine)


def _gemini_two_phase(engine: BaseEngine, s, active: np.ndarray) -> None:
    """Scan-all + targeted rescan, with exact cost accounting."""
    segments: dict[int, list[float]] = {}

    def collect_slot(v, value, s):
        segments.setdefault(v, []).append(float(value))
        return False

    engine.pull(
        _scan_all_signal,
        collect_slot,
        s,
        active,
        update_bytes=8,
        sync_bytes=0,
    )

    # Phase 2: the master locates the crossing machine from the partial
    # sums (machine segments arrive in ascending machine order), sends
    # it the residual threshold, and that machine rescans its local
    # neighbors to the crossing point.
    partition = engine.partition
    master_of = partition.master_of
    record = IterationRecord(mode="pull")
    step = StepRecord(engine.num_machines)
    for v, sums in segments.items():
        holders = np.flatnonzero(partition._has_in[:, v])
        target = float(s.r[v])
        running = 0.0
        owner = None
        for machine, local_sum in zip(holders, sums):
            if running + local_sum >= target:
                owner = int(machine)
                break
            running += local_sum
        if owner is None:  # numeric guard: fall back to the last holder
            owner = int(holders[-1])
        master = int(master_of[v])
        if master != owner:
            engine.network.send(master, owner, "update", 8)
            step.update_bytes[master] += 8
        residual = target - running
        prefix = 0.0
        chosen = -1
        for u in partition.local_in(owner).neighbors(v):
            u = int(u)
            step.high_edges[owner] += 1
            prefix += float(s.weight[u])
            if prefix >= residual:
                chosen = u
                break
        if chosen < 0:
            # float guard: keep the heaviest local neighbor
            local = partition.local_in(owner).neighbors(v)
            chosen = int(local[-1])
        if owner != master:
            engine.network.send(owner, master, "update", 8)
            step.update_bytes[owner] += 8
        s.select[v] = chosen
        step.high_vertices[owner] += 1

    record.steps = [step]
    engine.counters.add_iteration(record)
    engine.counters.add_edges(int(step.high_edges.sum()))
    engine.counters.add_vertices(int(step.high_vertices.sum()))

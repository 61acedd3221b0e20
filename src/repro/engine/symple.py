"""SympleGraph engine: circulant scheduling + dependency propagation.

The paper's core runtime (Section 5).  A dense pull iteration is split
into ``p`` steps.  In step ``s`` machine ``m`` processes the in-edges it
stores whose destination masters live on machine ``(m + s + 1) % p`` —
the subgraph ``[m, (m+s+1)%p]`` in Figure 7's matrix view.  Every
destination partition is therefore scanned by exactly one machine per
step, and across steps its in-edges are processed *sequentially* in a
fixed machine order, finishing on the master's own machine.

At each step boundary a machine sends the dependency state of the
partition it just processed to the machine on its left (the one that
will process that partition next): the control bitmap plus any carried
data (K-core's running count, sampling's prefix sum).  A vertex whose
bit is set is skipped outright by all following machines — eliminating
the redundant computation and update communication that Gemini incurs.

Optimizations (Sections 5.2-5.3), all individually toggleable for the
Figure 11 ablation:

* ``differentiated``: only vertices with in-degree >= threshold take
  part in dependency propagation; low-degree vertices fall back to the
  Gemini schedule (their savings wouldn't pay for the messages).
* ``double_buffering``: each step's dependency ships in two halves so
  transfer overlaps compute — a timing-model effect (bytes unchanged).
* ``schedule="naive"``: enforce sequentiality without circulant
  scheduling (one machine active at a time) — the strawman circulant
  scheduling exists to beat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.engine.base import (
    BaseEngine,
    PhaseResult,
    SignalLike,
    _UpdateBuffer,
)
from repro.engine.dep import DepStore
from repro.engine.fastpath import KERNEL
from repro.engine.state import StateStore
from repro.errors import EngineError
from repro.partition.base import Partition
from repro.runtime.bitmap import Bitmap
from repro.runtime.cost_model import SYMPLE_COST, CostModel
from repro.runtime.counters import IterationRecord, StepRecord

__all__ = ["SympleGraphEngine", "SympleOptions", "circulant_partition",
           "circulant_machine_order", "schedule_matrix", "render_schedule"]

# The paper selects its production threshold (32) by sweeping powers
# of two on 1-4 billion-edge graphs (Section 6).  At this repo's ~1000x
# smaller graphs the same sweep (benchmarks/bench_ablation_threshold)
# selects a proportionally smaller value.
DEFAULT_DEGREE_THRESHOLD = 4


@dataclass
class SympleOptions:
    """Feature switches for the SympleGraph runtime.

    ``use_kernels`` enables the batched NumPy fast paths
    (:mod:`repro.kernels`) for UDFs the analyzer classified into a
    vectorizable shape — signal kernels and slot scatters alike;
    results, counters, and traffic are bit-identical either way, so
    this is purely a wall-clock switch.  Off, every pull unit runs the
    per-vertex interpreter and every update the scalar slot loop — the
    fallbacks unclassified UDFs take anyway, and the reference the
    equivalence tests compare the fast paths against.

    Tracing is attached as an observer (``make_engine(obs=...)``,
    ``RunConfig(obs=...)``, :meth:`BaseEngine.attach_observer`), and
    dependency-loss injection as a fault plan
    (``FaultPlan.dep_loss(rate, seed)``); neither is an engine option.
    """

    degree_threshold: int = DEFAULT_DEGREE_THRESHOLD
    differentiated: bool = True
    double_buffering: bool = True
    schedule: str = "circulant"
    use_kernels: bool = True

    def __post_init__(self) -> None:
        if self.schedule not in ("circulant", "naive"):
            raise EngineError(f"unknown schedule {self.schedule!r}")
        if self.degree_threshold < 0:
            raise EngineError("degree_threshold must be non-negative")


def circulant_partition(machine: int, step: int, num_machines: int) -> int:
    """Destination partition machine ``machine`` processes at ``step``."""
    return (machine + step + 1) % num_machines


def schedule_matrix(num_machines: int) -> np.ndarray:
    """Matrix ``M[machine, step] = partition processed`` (Figure 7b).

    ``num_machines=1`` degenerates to the single-cell matrix ``[[0]]``:
    one machine, one step, processing its own partition with no
    dependency hand-off.
    """
    p = int(num_machines)
    if p < 1:
        raise EngineError("a circulant schedule needs at least one machine")
    ids = np.arange(p)
    return circulant_partition(ids[:, None], ids[None, :], p)


def render_schedule(num_machines: int) -> str:
    """ASCII rendering of the circulant schedule."""
    matrix = schedule_matrix(num_machines)
    p = len(matrix)
    width = max(3, len(str(p - 1)) + 1)
    header = "      " + "".join(f"s{s}".rjust(width) for s in range(p))
    lines = [header]
    for m in range(p):
        cells = "".join(f"P{matrix[m, s]}".rjust(width) for s in range(p))
        lines.append(f"M{m}".ljust(6) + cells)
    if p == 1:
        lines.append("single machine: one step, no dependency hand-off")
    else:
        lines.append(
            "each column is a permutation: machines process disjoint "
            "partitions per step"
        )
    return "\n".join(lines)


def circulant_machine_order(partition_id: int, num_machines: int) -> List[int]:
    """Machines that process ``partition_id``'s in-edges, in step order.

    The sequence ends with the partition's own (master) machine, so the
    final dependency state lands where the masters live.
    """
    return [
        (partition_id - 1 - s) % num_machines for s in range(num_machines)
    ]


class SympleGraphEngine(BaseEngine):
    """Distributed engine with precise loop-carried dependency."""

    kind = "symple"
    cost_kind = "symple"
    supports_dependency = True
    supports_async = True

    def __init__(
        self,
        partition: Partition,
        options: Optional[SympleOptions] = None,
        cost_model: CostModel = SYMPLE_COST,
        obs=None,
        executor=None,
        verify: str = "off",
    ) -> None:
        self.options = options or SympleOptions()
        super().__init__(
            partition, cost_model, use_kernels=self.options.use_kernels,
            obs=obs, executor=executor, verify=verify,
        )
        if self.options.differentiated:
            self._high_mask = (
                partition.graph.in_degrees() >= self.options.degree_threshold
            )
        else:
            self._high_mask = np.ones(partition.graph.num_vertices, dtype=bool)

    # -- pull ---------------------------------------------------------------

    def pull(
        self,
        signal: SignalLike,
        slot: Callable,
        state: StateStore,
        active: np.ndarray,
        update_bytes: int = 8,
        sync_bytes: int = 8,
        dep_data_bytes: int = 4,
        allow_differentiated: bool = True,
        share_dep_data: bool = True,
    ) -> PhaseResult:
        """Dense pull: circulant scheduling with dependency propagation
        when the signal carries one, Gemini-style parallel otherwise."""
        active_idx = self._check_active(active)
        analyzed = self.ensure_analyzed(signal)
        if not analyzed.has_dependency or self.num_machines == 1:
            # No loop-carried dependency: Gemini is the special case of
            # SympleGraph without dependency communication (Section 5.1).
            return self._pull_parallel(
                analyzed, slot, state, active_idx, update_bytes, sync_bytes
            )
        return self._pull_circulant(
            analyzed,
            slot,
            state,
            active_idx,
            update_bytes,
            sync_bytes,
            dep_data_bytes,
            allow_differentiated,
            share_dep_data,
        )

    def _pull_circulant(
        self,
        analyzed,
        slot: Callable,
        state: StateStore,
        active_idx: np.ndarray,
        update_bytes: int,
        sync_bytes: int,
        dep_data_bytes: int,
        allow_differentiated: bool,
        share_dep_data: bool,
    ) -> PhaseResult:
        """``p`` steps; in step ``s`` machine ``m`` gets the pull unit
        for partition ``(m + s + 1) % p``: its circulated vertices whose
        skip bit is still clear on the dependency lane, the low-degree
        rest on the plain lane (Gemini's schedule, booked under
        ``low_*``).  The guarantee of Definition 2.4 lives in the filter
        below plus the write-back in :meth:`BaseEngine._pull_step`."""
        p = self.num_machines
        phase = self._phase_begin("pull")
        master_of = self.partition.master_of
        dep_store = DepStore(
            self.graph.num_vertices,
            analyzed.info.carried_vars,
            share_data=share_dep_data,
        )
        has_data = bool(dep_store.data)
        if allow_differentiated:
            high_mask = self._high_mask
        else:
            high_mask = np.ones(self.graph.num_vertices, dtype=bool)

        # Failure injection (Section 5.1): with probability
        # dep_loss_rate a machine started before the control bit
        # arrived and scans the vertex blind — losing savings, never
        # correctness.  Only control-only UDFs are eligible (a lost
        # *data* dependency is not an incomplete-information case).
        controller = self._fault_controller
        lossy = (
            controller is not None
            and controller.dep_loss_rate > 0.0
            and not has_data
        )
        use_kernel = self.fastpaths.plan(
            KERNEL, analyzed.original, state, analyzed
        ) is not None

        # Loop-invariant hoisting: local degree arrays, the
        # per-partition candidate split, and each partition's hand-off
        # size are step-independent — computed once per pull
        # (O(p * |active|)) instead of once per (step, machine) pair
        # (O(p^2 * |active|)).
        machine_degs = [
            self.partition.local_in(m).degrees() for m in range(p)
        ]
        by_master = [active_idx[master_of[active_idx] == j] for j in range(p)]
        # Control bits travel as a packed bitmap; carried data travels
        # as the SoA array slice for every circulated vertex (Section
        # 6's layout) — this is why sampling's dependency traffic is
        # large while BFS/MIS pay one bit per vertex.
        per_vertex = dep_data_bytes * len(dep_store.data)
        handoff_bytes = [
            Bitmap.wire_bytes(n) + n * per_vertex if n else 0
            for n in (
                int(np.count_nonzero(high_mask[part])) for part in by_master
            )
        ]

        buffer = _UpdateBuffer()
        steps: List[StepRecord] = []
        for s in range(p):
            if s > 0 and controller is not None:
                # A mid-step crash severs the dependency circulation:
                # the whole phase aborts and recovery restarts it from
                # the step-0 boundary with blanked bitmaps (Section 5.1
                # guarantees correctness under incomplete information).
                controller.check_crash(phase, s)
            step = self._make_step(phase)
            if self.obs is not None:
                self.obs.step_begin(s)
            is_last = s == p - 1
            items = []
            handoffs = []
            for m in range(p):
                j = circulant_partition(m, s, p)
                part = by_master[j]
                cand = part[machine_degs[m][part] > 0]
                circulated = high_mask[cand]
                dep = cand[circulated]
                skipped = dep_store.skip[dep]
                if lossy:
                    # one coin per skipped vertex, machine-ascending
                    # then vertex-ascending: a step's partitions are
                    # disjoint, so no draw depends on another unit
                    skipped[skipped] = ~controller.dep_lost(
                        int(skipped.sum())
                    )
                dep = dep[~skipped]
                items.append({
                    "m": m,
                    "dep": dep,
                    "carried": {
                        name: (dep_store.present[name][dep], values[dep])
                        for name, values in dep_store.data.items()
                    } if has_data else None,
                    "plain": cand[~circulated],
                })
                # after the final step the master holds the complete
                # state locally: nothing to hand off
                handoffs.append(0 if is_last else handoff_bytes[j])
            self._pull_step(
                analyzed, use_kernel, state, items, step, buffer,
                update_bytes, "low", dep_store=dep_store,
                handoffs=handoffs, is_last=is_last, at=(phase, s),
            )
            steps.append(step)
            if self.obs is not None:
                self.obs.step_end(s, step)

        return self._commit_phase(
            IterationRecord(mode="pull"), steps, buffer, slot, state,
            sync_bytes, steps_traced=True,
        )

    # -- timing ---------------------------------------------------------------

    def execution_time(self, cost_model: Optional[CostModel] = None) -> float:
        """Simulated time, honoring this engine's schedule/DB options."""
        model = cost_model or self.default_cost
        return model.execution_time(
            self.counters,
            "symple",
            double_buffering=self.options.double_buffering,
            schedule=self.options.schedule,
        )

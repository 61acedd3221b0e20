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

A dependency is enforced only where it can skip something.  A signal
with no ``break`` whose carry is a ``full_scan_min`` fold into a
``min_fold`` slot on the field it starts from
(:func:`~repro.analysis.slotspec.min_fold_pair`: CC, incremental BFS /
CC) skips nothing, and its per-machine partials combine at the master
exactly, so it runs Gemini's one-step schedule — the same fixpoint
with no dependency bytes.  Every other carry circulates.

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
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.slotspec import min_fold_pair
from repro.engine.base import (
    BaseEngine,
    PhaseResult,
    SignalLike,
    _UpdateBuffer,
)
from repro.engine.dep import DepStore, carried_dtypes
from repro.engine.fastpath import KERNEL
from repro.engine.state import StateStore
from repro.errors import EngineError
from repro.exec import work
from repro.fields import Field, check_fields
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

#: the config field table's rows for ``RunConfig.options``
#: (``repro.api.FIELDS["options"].fields``)
OPTION_FIELDS = {
    "degree_threshold": Field(int, low=0),
    "differentiated": Field(bool),
    "double_buffering": Field(bool),
    "schedule": Field(choices=("circulant", "naive")),
}


@dataclass
class SympleOptions:
    """Feature switches for the SympleGraph runtime.

    Tracing is attached as an observer (``make_engine(obs=...)``,
    ``RunConfig(obs=...)``, :meth:`BaseEngine.attach_observer`), and
    dependency-loss injection as a fault plan
    (``FaultPlan.dep_loss(rate, seed)``); neither is an engine option.
    """

    degree_threshold: int = DEFAULT_DEGREE_THRESHOLD
    differentiated: bool = True
    double_buffering: bool = True
    schedule: str = "circulant"

    def __post_init__(self) -> None:
        check_fields(self, OPTION_FIELDS, "options.")


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
            partition, cost_model, obs=obs, executor=executor,
            verify=verify,
        )
        if self.options.differentiated:
            self._high_mask = (
                partition.graph.in_degrees() >= self.options.degree_threshold
            )
        else:
            self._high_mask = np.ones(partition.graph.num_vertices, dtype=bool)
        #: ids of (signal, slot) -> (signal, slot, does the pair skip
        #: the dependency lane?)
        self._min_folds: Dict[Tuple[int, int], Tuple] = {}

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
        when the signal carries a dependency that matters, Gemini-style
        parallel otherwise — no dependency, one machine, or a break-free
        min fold the slot combines at the master
        (:meth:`_combines_at_master`)."""
        active = self._check_active(active)
        analyzed = self.ensure_analyzed(signal)
        if (not analyzed.has_dependency or self.num_machines == 1
                or self._combines_at_master(analyzed, slot)):
            # Gemini is the special case of SympleGraph without
            # dependency communication (Section 5.1).
            return self._pull_parallel(
                analyzed, slot, state, active, update_bytes, sync_bytes
            )
        return self._pull_circulant(
            analyzed,
            slot,
            state,
            active,
            update_bytes,
            sync_bytes,
            dep_data_bytes,
            allow_differentiated,
            share_dep_data,
        )

    def _combines_at_master(self, analyzed, slot: Callable) -> bool:
        """:func:`~repro.analysis.slotspec.min_fold_pair` of the pair,
        decided once per pair.
        Under ``verify != "off"`` the fold's kernel contract is
        certified first; a refuted one circulates."""
        fn = analyzed.original
        entry = self._min_folds.get((id(fn), id(slot)))
        if entry is None:
            # holding both keeps their ids from being reused
            entry = self._min_folds[id(fn), id(slot)] = (
                fn, slot, min_fold_pair(analyzed, slot)
                and self.fastpaths.holds(KERNEL, fn, analyzed.kernel),
            )
        return entry[2]

    def _pull_circulant(
        self,
        analyzed,
        slot: Callable,
        state: StateStore,
        active: np.ndarray,
        update_bytes: int,
        sync_bytes: int,
        dep_data_bytes: int,
        allow_differentiated: bool,
        share_dep_data: bool,
    ) -> PhaseResult:
        """``p`` steps; in step ``s`` machine ``m`` scans partition
        ``(m + s + 1) % p``: its circulated vertices whose skip bit is
        still clear on the dependency lane, the low-degree rest on the
        plain lane (Gemini's schedule, booked under ``low_*``).  What is
        mapped is the phase's table, one item per partition, walked
        through the steps (:func:`repro.exec.work.pull_walk`, where
        Definition 2.4's skip filter and write-back run), once a phase —
        or one step a map under a fault controller, which acts between
        steps."""
        p, n = self.num_machines, self.graph.num_vertices
        phase = self._phase_begin("pull")
        carried = carried_dtypes(analyzed, state) if share_dep_data else {}
        high = active & (self._high_mask if allow_differentiated else True)
        # the circulated (high) vertices on the dependency lane, the
        # low-degree rest on the plain lane: item j is partition j
        table = self._pull_table(high, active & ~high, circulant=True)
        # Control bits travel as a packed bitmap; carried data travels
        # as the SoA array slice for every circulated vertex (Section
        # 6's layout) — this is why sampling's dependency traffic is
        # large while BFS/MIS pay one bit per vertex.
        per_vertex = dep_data_bytes * len(carried)
        handoff_bytes = np.array([
            Bitmap.wire_bytes(k) + k * per_vertex if k else 0
            for k in np.bincount(
                self.partition.master_of[high], minlength=p
            ).tolist()
        ], dtype=np.int64)

        def walk(first: int, stop: int, stalls=None, dep_in=None):
            return self._map_pull(
                analyzed, state, table, stalls=stalls,
                steps=(first, stop), carried=carried, dep_in=dep_in,
            )

        # step s hands on partition (m + s + 1) % p's state; after the
        # final step the master holds it locally: nothing to hand off
        ids = np.arange(p)
        handoffs = handoff_bytes[(ids[:, None] + ids + 1) % p]
        handoffs[-1] = 0
        buffer = _UpdateBuffer()
        steps: List[StepRecord] = []
        controller = self._fault_controller
        # a hub with no tracer tallies each merged walk's steps
        traced = self._traced
        if controller is None:
            walked = walk(0, p)
            for s in range(1, p):
                self._check_deadline(phase, s)
            steps = self._merge_steps(
                walked, buffer, update_bytes, "low", handoffs, first=0,
            )
        else:
            dep_store = DepStore(n, carried)
            # Failure injection (Section 5.1): with probability
            # dep_loss_rate a machine started before the control bit
            # arrived and scans the vertex blind — losing savings, never
            # correctness.  Only control-only UDFs are eligible (a lost
            # *data* dependency is not an incomplete-information case).
            lossy = controller.dep_loss_rate > 0.0 and not dep_store.data
            for s in range(p):
                if s > 0:
                    self._check_deadline(phase, s)
                    # A mid-step crash severs the dependency circulation:
                    # recovery restarts the phase from the step-0 boundary
                    # with blanked bitmaps (Section 5.1).
                    controller.check_crash(phase, s)
                step = self._make_step(phase)
                if traced is not None:
                    traced.emit("step_begin", step=s)
                # the walk of this step alone, on the parent's state
                skip = dep_store.skip.copy() if lossy else dep_store.skip
                if lossy:  # one coin per skipped vertex, machine- then
                    # vertex-ascending: a step's partitions are disjoint
                    for m in range(p):
                        dep = work.unit_lane(table, "dep", m, (m + s + 1) % p)
                        held = dep[skip[dep]]
                        skip[held[controller.dep_lost(held.size)]] = False
                walked = walk(
                    s, s + 1,
                    stalls=[step.slowdown[(j - s - 1) % p] for j in range(p)],
                    dep_in=(skip, dep_store.present, dep_store.data),
                )
                for chunk in walked:
                    work.write_back(dep_store, chunk["dep_v"], chunk["broke"],
                                    chunk["carried"])
                step, = self._merge_steps(
                    walked, buffer, update_bytes, "low", [handoffs[s]],
                    slowdown=[step.slowdown],
                )
                steps.append(step)
                if traced is not None:  # step_end feeds no metric
                    traced.emit("step_end", step=s, **step.payload())

        return self._commit_phase(
            IterationRecord(mode="pull"), steps, buffer, slot, state,
            sync_bytes, steps_traced=True,
        )

    # -- timing ---------------------------------------------------------------

    def pricing_keywords(self) -> Dict[str, Any]:
        """Price with this engine's schedule and double-buffering."""
        return {
            "double_buffering": self.options.double_buffering,
            "schedule": self.options.schedule,
        }

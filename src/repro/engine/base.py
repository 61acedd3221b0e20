"""Shared engine machinery.

A *distributed engine* executes signal-slot vertex programs over a
:class:`~repro.partition.base.Partition`, metering every neighbor scan
and every remote byte.  Concrete engines differ in how the dense pull
phase is scheduled:

* :class:`~repro.engine.gemini.GeminiEngine` — every machine scans its
  local in-edges independently and in parallel (the BSP baseline);
* :class:`~repro.engine.symple.SympleGraphEngine` — circulant
  scheduling with dependency propagation;
* :class:`~repro.engine.dgalois.DGaloisEngine` — BSP over a vertex-cut
  with Gluon-style reduce+broadcast synchronization.

The sparse push phase and the slot/update/sync protocol are shared.
Slot application is deferred to the end of the phase (bulk-synchronous
visibility): signals never observe same-iteration writes, matching
Definition 2.2 semantics so all engines compute identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, repeat
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.instrument import AnalyzedSignal, instrument_signal
from repro.engine.fastpath import BLOCK, KERNEL, PUSH, SLOT, FastPaths
from repro.engine.state import StateStore
from repro.exec import work
from repro.errors import EngineError
from repro.kernels.slots import apply_slot
from repro.obs.hooks import ObsHub
from repro.partition.base import Partition
from repro.runtime.cost_model import CostModel
from repro.runtime.counters import Counters, IterationRecord, StepRecord
from repro.runtime.network import SimulatedNetwork

__all__ = [
    "PhaseResult",
    "BaseEngine",
    "SignalLike",
]

SignalLike = Union[Callable, AnalyzedSignal]

# One serial per engine (a Session builds an engine per run): the scope
# scan plans are kept in.  Not ``id()``, which a later engine can reuse.
_RUN_SERIAL = count(1)


@dataclass
class PhaseResult:
    """Outcome of one dense pull or sparse push phase."""

    changed: np.ndarray
    updates_applied: int
    edges_traversed: int

    @property
    def any_changed(self) -> bool:
        return self.changed.size > 0


@dataclass
class _UpdateBuffer:
    """Updates collected during a phase, applied bulk-synchronously.

    One ``(v, values)`` bin per merged work unit, in merge order: ``v``
    the destination vertices (int64) and ``values`` the update values
    aligned with it — the numeric array the unit returned, or a list
    when its values were not numbers of one type.  A classified slot
    takes the bins through :func:`repro.kernels.slots.apply_slot`;
    :meth:`apply` is the scalar loop every other slot takes.
    """

    bins: List[Tuple[np.ndarray, object]] = field(default_factory=list)

    def append(self, v: np.ndarray, values) -> None:
        if v.size:
            self.bins.append((v, values))

    @property
    def total(self) -> int:
        return sum(v.size for v, _ in self.bins)

    def apply(
        self, slot: Callable, state: StateStore
    ) -> Tuple[np.ndarray, int]:
        """One ``slot`` call per update, in bin order."""
        changed: Dict[int, None] = {}
        for bin_v, values in self.bins:
            for v, value in zip(bin_v.tolist(), values):
                if slot(v, value, state):
                    changed[v] = None
        return np.fromiter(changed.keys(), dtype=np.int64), self.total


class BaseEngine:
    """Common state and protocol shared by all distributed engines."""

    kind = "abstract"
    cost_kind = "gemini"  # which CostModel pricing function applies
    supports_dependency = False
    supports_async = False  # per-bucket activation (algorithms.relax)
    sync_scope = "in"  # which replica holders receive state broadcasts

    def __init__(
        self,
        partition: Partition,
        default_cost: CostModel,
        use_kernels: bool = True,
        obs: Optional[ObsHub] = None,
        executor=None,
        verify: str = "off",
    ) -> None:
        self.partition = partition
        self.graph = partition.graph
        self.num_machines = partition.num_machines
        self.counters = Counters(self.num_machines)
        self.network = SimulatedNetwork(self.num_machines, self.counters)
        self.default_cost = default_cost
        self.use_kernels = use_kernels
        self.verify = verify
        self.fastpaths = FastPaths(use_kernels, verify)
        self._analyzed: Dict[int, AnalyzedSignal] = {}
        self._run_serial = next(_RUN_SERIAL)
        self._fault_controller = None
        self.executor = None
        self.attach_executor(executor)
        self.obs: Optional[ObsHub] = None
        if obs is not None:
            self.attach_observer(obs)

    # -- execution backend --------------------------------------------------

    def attach_executor(self, executor=None) -> None:
        """Install the executor that runs per-machine work units.

        Accepts an :class:`~repro.exec.base.Executor` instance, a kind
        string (``"serial"``/``"process"``), or ``None``
        for the default serial backend.  The executor is (re)bound to
        this engine's partition; every backend produces bit-identical
        results — see :mod:`repro.exec`.
        """
        from repro.exec import make_executor

        self.executor = make_executor(executor)
        self.executor.bind(self)

    def _map_machines(self, fn, shared, items, state, step=None):
        """Dispatch per-machine tasks, bracketing with ``exec_*`` events.

        ``step`` supplies the straggler slowdown factors the concurrent
        backends turn into real wall-clock stalls; results come back in
        item order for the deterministic merge.
        """
        ex = self.executor
        if self.obs is None:
            return ex.map_machines(
                fn, shared, items, state,
                stalls=step.slowdown if step is not None else None,
            )
        self.obs.exec_map_begin(ex.kind, ex.workers, len(items))
        t0 = perf_counter()
        results = ex.map_machines(
            fn, shared, items, state,
            stalls=step.slowdown if step is not None else None,
        )
        if ex.last_fallback is not None:
            self.obs.exec_fallback(ex.kind, ex.last_fallback)
        for kind, payload in ex.drain_events():
            if kind == "pool_spawn":
                self.obs.exec_pool_spawn(ex.kind, **payload)
            elif kind == "arena_grow":
                self.obs.exec_arena_grow(ex.kind, **payload)
        self.obs.exec_map_end(ex.kind, len(items), perf_counter() - t0)
        return results

    # -- observability ------------------------------------------------------

    def attach_observer(self, obs) -> None:
        """Attach (or with ``None``, detach) an observability hub.

        Accepts an :class:`~repro.obs.hooks.ObsHub`, a bare
        :class:`~repro.obs.tracer.Tracer`, or a trace-file path.  With
        no hub attached the engines pay a single None check per call
        site — the tracing-off overhead contract.
        """
        self.obs = None if obs is None else ObsHub.coerce(obs)
        if self._fault_controller is not None:
            # the controller caches the hub reference at bind time
            self._fault_controller.bind(self)

    # -- fault injection ---------------------------------------------------

    def attach_faults(self, controller) -> None:
        """Install (or with ``None``, remove) a fault controller.

        The controller's delivery hook goes on the network; phase and
        step boundaries consult it for crash events and straggler
        slowdowns.  See :mod:`repro.fault`.
        """
        self._fault_controller = controller
        self.network.delivery_hook = None
        if controller is not None:
            controller.bind(self)

    def _phase_begin(self, mode: str = "pull") -> int:
        """Phase index of the phase about to run; fires crash events."""
        phase = len(self.counters.iterations)
        if self._fault_controller is not None:
            self._fault_controller.check_crash(phase, 0)
        if self.obs is not None:
            self.obs.phase_begin(phase, mode, self.cost_kind,
                                 self.num_machines)
        return phase

    def _make_step(self, phase: int) -> StepRecord:
        """New step record, with straggler slowdowns applied."""
        step = StepRecord(self.num_machines)
        if self._fault_controller is not None:
            step.slowdown[:] = self._fault_controller.slowdown(phase)
        return step

    # -- state -----------------------------------------------------------

    def new_state(self) -> StateStore:
        """Fresh vertex-state namespace sized for this engine's graph."""
        return StateStore(self.graph.num_vertices)

    # -- UDF analysis -------------------------------------------------------

    def ensure_analyzed(self, signal: SignalLike) -> AnalyzedSignal:
        """Analyze and instrument a signal, caching per function object."""
        if isinstance(signal, AnalyzedSignal):
            return signal
        key = id(signal)
        cached = self._analyzed.get(key)
        if cached is None:
            cached = instrument_signal(signal)
            self._analyzed[key] = cached
        return cached

    # -- phases ---------------------------------------------------------------

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
        """Dense pull phase over active destination vertices.

        The default is the BSP schedule (Gemini, D-Galois, the
        single-thread oracle): the dependency parameters are accepted
        for interface compatibility and ignored.  On the SympleGraph
        engine ``allow_differentiated=False`` forces dependency
        propagation for every vertex regardless of degree: required
        when the UDF is not Gemini-correct on its own (e.g. sampling's
        prefix sum, which has no meaning when machines scan
        independently).
        """
        active_idx = self._check_active(active)
        analyzed = self.ensure_analyzed(signal)
        return self._pull_parallel(
            analyzed, slot, state, active_idx, update_bytes, sync_bytes
        )

    def push(
        self,
        push_signal: Callable,
        slot: Callable,
        state: StateStore,
        frontier: np.ndarray,
        update_bytes: int = 8,
        sync_bytes: int = 8,
    ) -> PhaseResult:
        """Sparse push phase from the frontier along out-edges.

        ``push_signal(u, v, state)`` returns an update value or None.
        The paper's optimization targets pull mode; push is identical
        across the distributed engines.  A signal classified as a
        guarded emit is scanned as one array pass per machine (the
        ``push`` row of :mod:`repro.engine.fastpath`), any other by one
        call per edge; the units return the same either way.
        """
        frontier_idx = self._as_indices(frontier)
        phase = self._phase_begin("push")
        record = IterationRecord(mode="push")
        step = self._make_step(phase)
        buffer = _UpdateBuffer()
        push_msg: Dict[Tuple[int, int], int] = {}

        fast = self.fastpaths
        shared = {
            "signal": push_signal,
            "frontier": frontier_idx,
            "use_kernel": fast.plan(PUSH, push_signal, state) is not None,
        }
        items = [{"m": m} for m in range(self.num_machines)]
        results = self._map_machines(
            work.push_task, shared, items, state, step=step
        )
        if (
            shared["use_kernel"]
            and fast.checking(PUSH, push_signal)
            and any(res["edges"] for res in results)
        ):
            # units are pure: mapping them again on the per-edge loop
            # is safe on either backend
            results = fast.certified(
                PUSH, push_signal, results, self._map_machines(
                    work.push_task, {**shared, "use_kernel": False},
                    items, state,
                ),
            )
        master_of = self.partition.master_of
        for res in results:
            m = res["m"]
            step.high_edges[m] += res["edges"]
            step.high_vertices[m] += res["vertices"]
            for owner in res["owners"].tolist():
                # frontier state of u must reach this machine's
                # out-edge replicas (free under outgoing edge-cut).
                self.network.send(owner, m, "push", 8)
                step.update_bytes[owner] += 8
            emit_v = res["emit_v"]
            dst = master_of[emit_v]
            dst = dst[dst != m]
            if dst.size:
                # one coalesced message per destination, keyed in the
                # order this unit first emitted to it
                masters, first, counts = np.unique(
                    dst, return_index=True, return_counts=True
                )
                order = np.argsort(first)
                for d, k in zip(
                    masters[order].tolist(), counts[order].tolist()
                ):
                    push_msg[(m, d)] = update_bytes * k
                step.update_bytes[m] += update_bytes * int(dst.size)
            buffer.append(emit_v, res["emit_values"])

        for (src, dst), nbytes in push_msg.items():
            self.network.send(src, dst, "push", nbytes)

        record.push_bytes = sum(push_msg.values())
        return self._commit_phase(
            record, [step], buffer, slot, state, sync_bytes
        )

    def _apply_updates(
        self, buffer: _UpdateBuffer, slot: Callable, state: StateStore
    ) -> Tuple[np.ndarray, int]:
        """Apply a phase's bins: one ordered scatter when the slot is
        classified and the values are arrays it reproduces exactly,
        the scalar loop otherwise.  A scatter still to be certified is
        compared with the scalar loop run on a copy of the state."""
        fast = self.fastpaths
        spec = fast.plan(SLOT, slot, state) if buffer.bins else None
        if spec is None:
            return buffer.apply(slot, state)
        shadow = None
        if fast.checking(SLOT, slot):
            shadow = StateStore(state.num_vertices)
            shadow.restore(state.snapshot())
        changed = apply_slot(spec, state, buffer.bins)
        if changed is None:
            return buffer.apply(slot, state)
        result = changed, buffer.total
        if shadow is not None:
            result = fast.certified(
                SLOT, slot, (state, result),
                (shadow, buffer.apply(slot, shadow)),
            )[1]
        return result

    def _grouped_sends_ok(self) -> bool:
        """May per-vertex update messages be coalesced into one send?

        Grouping keeps bytes_by_tag/messages_by_tag identical (via
        ``messages=count``) but would change what a delivery hook or
        the trace log observes per message, so both force the
        one-send-per-vertex path.
        """
        return self.network.delivery_hook is None and not self.network.trace

    def _pull_step(
        self,
        analyzed: AnalyzedSignal,
        use_kernel: bool,
        state: StateStore,
        items: List[Dict],
        step: StepRecord,
        buffer: _UpdateBuffer,
        update_bytes: int,
        plain_column: str,
        active: Optional[np.ndarray] = None,
        dep_store=None,
        handoffs: Optional[Sequence[int]] = None,
        is_last: bool = False,
        at: Tuple[int, int] = (0, 0),
    ) -> None:
        """Run one pull step's units on the executor and merge them.

        ``items`` are :func:`repro.exec.work.pull_task` units, one per
        machine; the workers only scan — a chunk of consecutive units at
        a time, in blocks (:func:`repro.exec.work.pull_units`), with
        ``at`` — ``(phase, step)`` — saying where in the run this step
        sits, so a block that recurs in the next pull phase can be
        recognized.  Everything observable happens
        here, unit by unit in item order: lane metering (the dependency
        lane always books under ``high_*``; ``plain_column`` names the
        ``StepRecord`` column pair — ``"high"`` or ``"low"`` — the plain
        lane books under, which the cost model prices separately),
        dependency-store write-back, update sends (coalesced per
        destination when :meth:`_grouped_sends_ok`, else one per
        emitting vertex in ascending order), update buffering (the
        unit's arrays become one bin as they are), and —
        where ``handoffs`` gives a unit a nonzero byte count — the
        dependency hand-off of that many bytes to the machine on the
        left.
        """
        fast, fn = self.fastpaths, analyzed.original
        shared = {
            "signal": analyzed,
            "use_kernel": use_kernel,
            "timed": self.obs is not None,
            "active": active,
            "is_last": is_last,
            "scan": (self._run_serial, *at),
            "solo": fast.refuted(BLOCK, fn),
        }
        certifying = use_kernel and fast.checking(BLOCK, fn)
        scan = self.executor.scan
        sharing = scan["units"] - scan["blocks"]
        results = self._map_machines(
            work.pull_task, shared, items, state, step=step
        )
        if certifying and scan["units"] - scan["blocks"] > sharing:
            # the first step in which units shared a kernel call: map
            # it again with every unit in a kernel call of its own
            results = fast.certified(
                BLOCK, fn, results, self._map_machines(
                    work.pull_task, {**shared, "solo": True}, items, state
                ),
            )
        master_of = self.partition.master_of
        grouped = self._grouped_sends_ok()
        plain_edges = getattr(step, plain_column + "_edges")
        plain_vertices = getattr(step, plain_column + "_vertices")
        for item, res, handoff in zip(items, results, handoffs or repeat(0)):
            m = res["m"]
            traced = self.obs is not None and res["kind"] is not None
            dep = item.get("dep")
            if dep is not None:
                if traced:
                    self.obs.kernel_batch(
                        m, res["kind"], int(dep.size), res["dep_edges"],
                        res["dep_seconds"],
                    )
                step.high_edges[m] += res["dep_edges"]
                step.high_vertices[m] += int(dep.size)
                if res["broke"] is not None:
                    dep_store.skip[dep[res["broke"]]] = True
                for name, (present, values) in res["carried"].items():
                    dep_store.present[name][dep] = present
                    dep_store.data[name][dep] = values
            if traced:
                self.obs.kernel_batch(
                    m, res["kind"], res["plain_vertices"],
                    res["plain_edges"], res["plain_seconds"],
                )
            plain_edges[m] += res["plain_edges"]
            plain_vertices[m] += res["plain_vertices"]

            # counts is None when every vertex emitted exactly once
            emit_v, counts = res["emit_v"], res["emit_counts"]
            if emit_v.size:
                dst = master_of[emit_v]
                remote = dst != m
                dst = dst[remote]
                if dst.size:
                    # values per remote vertex
                    sent = None if counts is None else counts[remote]
                    if grouped:
                        # same bytes and message count as one send per
                        # emitting vertex
                        messages = np.bincount(dst)
                        payload = (
                            messages if sent is None
                            else np.bincount(dst, weights=sent)
                        )
                        for d in np.flatnonzero(messages).tolist():
                            self.network.send(
                                m, d, "update",
                                update_bytes * int(payload[d]),
                                messages=int(messages[d]),
                            )
                    else:
                        for d, k in zip(
                            dst.tolist(),
                            repeat(1) if sent is None else sent.tolist(),
                        ):
                            self.network.send(
                                m, d, "update", update_bytes * k
                            )
                    step.update_bytes[m] += update_bytes * (
                        dst.size if sent is None else int(sent.sum())
                    )
                buffer.append(
                    emit_v if counts is None else np.repeat(emit_v, counts),
                    res["emit_values"],
                )

            if handoff:
                left = (m - 1) % self.num_machines
                self.network.send(m, left, "dep", handoff)
                step.dep_bytes[m] += handoff
                if self.obs is not None:
                    self.obs.dep_transfer(m, left, handoff)

    def _commit_phase(
        self,
        record: IterationRecord,
        steps: List[StepRecord],
        buffer: _UpdateBuffer,
        slot: Callable,
        state: StateStore,
        sync_bytes: int,
        steps_traced: bool = False,
    ) -> PhaseResult:
        """Apply the buffered updates and book the finished phase.

        ``steps_traced`` says the step spans were already emitted live
        at real step boundaries (the circulant schedule); single-step
        phases report theirs here.
        """
        changed, applied = self._apply_updates(buffer, slot, state)
        record.steps = steps
        self._count_sync(changed, sync_bytes, record)
        self.counters.add_iteration(record)
        if self.obs is not None:
            if not steps_traced:
                for s, step in enumerate(steps):
                    self.obs.step_begin(s)
                    self.obs.step_end(s, step)
            self.obs.phase_end(record)
        edges = record.total_edges()
        self.counters.add_edges(edges)
        self.counters.add_vertices(
            int(
                sum(
                    st.high_vertices.sum() + st.low_vertices.sum()
                    for st in steps
                )
            )
        )
        return PhaseResult(changed, applied, edges)

    def _pull_parallel(
        self,
        analyzed: AnalyzedSignal,
        slot: Callable,
        state: StateStore,
        active_idx: np.ndarray,
        update_bytes: int,
        sync_bytes: int,
    ) -> PhaseResult:
        """BSP parallel pull: one step in which every machine scans its
        local in-edges of every active vertex on the plain lane —
        Gemini's schedule, and SympleGraph's when there is no dependency
        to enforce (Section 5.1's special case)."""
        phase = self._phase_begin("pull")
        step = self._make_step(phase)
        buffer = _UpdateBuffer()
        self._pull_step(
            analyzed,
            self.fastpaths.plan(KERNEL, analyzed.original, state, analyzed)
            is not None,
            state,
            [{"m": m} for m in range(self.num_machines)],
            step,
            buffer,
            update_bytes,
            "high",
            active=active_idx,
            at=(phase, 0),
        )
        return self._commit_phase(
            IterationRecord(mode="pull"), [step], buffer, slot, state,
            sync_bytes,
        )

    # -- protocol helpers -------------------------------------------------------

    def _as_indices(
        self, vertices: Union[np.ndarray, Sequence[int]]
    ) -> np.ndarray:
        """A vertex set as ascending distinct indices: a bool mask over
        all vertices, or integers within ``[0, n)``."""
        n = self.graph.num_vertices
        arr = np.asarray(vertices)
        if arr.dtype == bool:
            if arr.shape != (n,):
                raise EngineError(
                    "a vertex mask must cover all vertices: expected "
                    f"shape ({n},), got {arr.shape}"
                )
            return np.flatnonzero(arr)
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise EngineError(
                "vertices must be a bool mask or a 1-D integer array, "
                f"got dtype {arr.dtype} with shape {arr.shape}"
            )
        arr = np.unique(arr.astype(np.int64))
        if arr.size and (arr[0] < 0 or arr[-1] >= n):
            raise EngineError(
                f"vertex ids must lie in [0, {n}), got "
                f"{int(arr[0])}..{int(arr[-1])}"
            )
        return arr

    def _count_sync(
        self, changed: np.ndarray, sync_bytes: int, record: IterationRecord
    ) -> None:
        """Broadcast changed master state to replica holders.

        Every machine holding edges of a changed vertex needs the new
        flag value before the next phase (e.g. the "visited" filter in
        bottom-up BFS).  Counted per (vertex, holder) pair.
        """
        if changed.size == 0 or sync_bytes == 0 or self.num_machines == 1:
            return
        holders = self.partition._has_in[:, changed].copy()
        if self.sync_scope == "both":
            holders |= self.partition._has_out[:, changed]
        masters = self.partition.master_of[changed]
        holders[masters, np.arange(changed.size)] = False
        per_pair = holders.sum(axis=1)  # entries per receiving machine
        total = 0
        for m in range(self.num_machines):
            count = int(per_pair[m])
            if count == 0:
                continue
            # sender is each vertex's master; aggregate by receiver and
            # charge each master->receiver pair.
            send_masters, counts = np.unique(
                masters[holders[m]], return_counts=True
            )
            for src, cnt in zip(send_masters, counts):
                nbytes = int(cnt) * sync_bytes
                self.network.send(int(src), m, "sync", nbytes)
                total += nbytes
        record.sync_bytes += total

    def sync_state(self, vertices: np.ndarray, sync_bytes: int = 4) -> None:
        """Explicitly broadcast changed master state to replica holders.

        For algorithm steps that mutate vertex state outside a slot
        (e.g. MIS finalization marking new members inactive).  Bytes
        attach to the most recent iteration record.
        """
        vertices = self._as_indices(vertices)
        if vertices.size == 0:
            return
        if not self.counters.iterations:
            record = IterationRecord(mode="pull")
            record.steps = [StepRecord(self.num_machines)]
            self.counters.add_iteration(record)
            if self.obs is not None:
                self.obs.implicit_record(self.num_machines)
        target = self.counters.iterations[-1]
        before = target.sync_bytes
        self._count_sync(vertices, sync_bytes, target)
        if self.obs is not None and target.sync_bytes != before:
            # the delta mutates an already-committed record; the trace
            # carries it so reconstruction stays exact
            self.obs.sync_update(
                len(self.counters.iterations) - 1,
                target.sync_bytes - before,
            )

    # -- results --------------------------------------------------------------

    def execution_time(self, cost_model: Optional[CostModel] = None) -> float:
        """Simulated execution time of everything run so far."""
        model = cost_model or self.default_cost
        return model.execution_time(self.counters, self.cost_kind)

    def reset_metrics(self) -> None:
        """Clear counters and traffic (state/partition untouched)."""
        self.counters = Counters(self.num_machines)
        self.network = SimulatedNetwork(self.num_machines, self.counters)
        if self._fault_controller is not None:
            self._fault_controller.bind(self)

    def _check_active(self, active: np.ndarray) -> np.ndarray:
        arr = np.asarray(active)
        if arr.dtype != bool or arr.shape != (self.graph.num_vertices,):
            raise EngineError(
                "active must be a boolean mask over all vertices"
            )
        return np.flatnonzero(arr)

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
from itertools import count
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.instrument import AnalyzedSignal, instrument_signal
from repro.engine.fastpath import BLOCK, KERNEL, PUSH, SLOT, FastPaths
from repro.engine.state import StateStore
from repro.exec import work
from repro.graph.csr import sorted_unique
from repro.errors import DeadlineExceeded, EngineError
from repro.kernels.slots import apply_slot
from repro.obs.hooks import ObsHub
from repro.partition.base import Partition
from repro.runtime.cost_model import CostModel
from repro.runtime.counters import (
    COMM_TAGS, Counters, IterationRecord, StepRecord,
)
from repro.runtime.network import SimulatedNetwork

__all__ = [
    "PhaseResult",
    "BaseEngine",
    "SignalLike",
]

SignalLike = Union[Callable, AnalyzedSignal]

_UPDATE, _DEP = COMM_TAGS.index("update"), COMM_TAGS.index("dep")
# a pull table's lane with no vertex (read-only, shared)
_NO_VERTICES = np.zeros(0, dtype=np.int64)

# One serial per table ``_pull_table`` builds: the key workers keep lane
# plans under.  Not ``id()``, which a later table can reuse.
_TABLE_SERIAL = count(1)


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

    ``(v, values)`` bins in merge order: ``v`` the destination vertices
    (int64) and ``values`` the update values aligned with it — a numeric
    array, or a list when they were not numbers of one dtype.  A pull
    appends one bin per map (:func:`repro.exec.work.update_bins`), which
    is the per-unit bins end to end; a push one per machine.  A
    classified slot takes the bins through
    :func:`repro.kernels.slots.apply_slot`; :meth:`apply` is the scalar
    loop every other slot takes.
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


def _same_mask(kept: Optional[np.ndarray], mask: Optional[np.ndarray]):
    if kept is None or mask is None:
        return kept is mask
    return bool((kept == mask).all())


#: the bits of every byte value, low bit first: ``(256, 8)``
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


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
        self.verify = verify
        self.fastpaths = FastPaths(verify)
        self._analyzed: Dict[int, AnalyzedSignal] = {}
        self._fault_controller = None
        self._codes: Optional[np.ndarray] = None
        #: the last pull table, with the masks it was built from
        self._table: Optional[tuple] = None
        #: ``perf_counter()`` time past which a phase or step refuses
        #: to start (:class:`~repro.errors.DeadlineExceeded`); None: never
        self.deadline: Optional[float] = None
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

    def _map_machines(self, fn, shared, items, state, stalls=None):
        """Dispatch tasks, bracketing with ``exec_*`` events (a hub with
        no tracer is handed the map's begin and end as one tally).

        ``stalls`` — one straggler slowdown factor per item — are what
        the concurrent backends turn into real wall-clock stalls;
        results come back in item order for the deterministic merge.
        """
        ex, obs = self.executor, self.obs
        if obs is None:
            return ex.map_machines(fn, shared, items, state, stalls=stalls)
        traced = self._traced
        if traced is not None:
            traced.emit("exec_map_begin", backend=ex.kind,
                        workers=int(ex.workers), tasks=len(items))
        t0 = perf_counter()
        results = ex.map_machines(fn, shared, items, state, stalls=stalls)
        if ex.last_fallback is not None:
            obs.emit("exec_fallback", backend=ex.kind,
                     reason=ex.last_fallback)
        for kind, payload in ex.drain_events():
            obs.emit(kind, backend=ex.kind, **payload)
        seconds = perf_counter() - t0
        if traced is not None:
            traced.emit("exec_map_end", backend=ex.kind, tasks=len(items),
                        seconds=seconds)
        else:
            obs.tally(exec_map_begin=(1, {"backend": ex.kind}),
                      exec_map_end=(1, {"seconds": (seconds,)}))
        return results

    # -- observability ------------------------------------------------------

    @property
    def _traced(self) -> Optional[ObsHub]:
        """The hub when it has a tracer: the only one sent the events
        that feed no metric (``phase_end``, ``step_end``, ...)."""
        obs = self.obs
        return obs if obs is not None and obs.tracer is not None else None

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

    def _check_deadline(self, phase: int, step: int = 0) -> None:
        if self.deadline is not None and perf_counter() > self.deadline:
            raise DeadlineExceeded(phase, step)

    def _phase_begin(self, mode: str = "pull") -> int:
        """Phase index of the phase about to run; fires crash events."""
        phase = len(self.counters.iterations)
        self._check_deadline(phase)
        if self._fault_controller is not None:
            self._fault_controller.check_crash(phase, 0)
        if self.obs is not None:
            self.obs.emit("phase_begin", phase=phase, mode=mode,
                          engine=self.cost_kind, machines=self.num_machines)
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
        active = self._check_active(active)
        return self._pull_parallel(
            self.ensure_analyzed(signal), slot, state, active,
            update_bytes, sync_bytes,
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

        fast = self.fastpaths
        shared = {
            "signal": push_signal,
            "frontier": frontier_idx,
            "use_kernel": fast.plan(PUSH, push_signal, state) is not None,
        }
        items = [{"m": m} for m in range(self.num_machines)]
        results = self._map_machines(
            work.push_task, shared, items, state, stalls=step.slowdown
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
        p, master_of = self.num_machines, self.partition.master_of
        step.high_edges += [res["edges"] for res in results]
        step.high_vertices += [res["vertices"] for res in results]
        # frontier state of u must reach this machine's out-edge
        # replicas (free under outgoing edge-cut): one message each
        owners = [res["owners"] for res in results]
        src = [np.concatenate(owners)]
        dst = [np.repeat(np.arange(p), [o.size for o in owners])]
        nbytes = [np.full(src[0].size, 8, dtype=np.int64)]
        step.update_bytes += 8 * np.bincount(src[0], minlength=p)
        for res in results:
            m, emit_v = res["m"], res["emit_v"]
            to = master_of[emit_v]
            to = to[to != m]
            if to.size:
                # one coalesced message per destination, in the order
                # this unit first emitted to it
                masters, first, counts = np.unique(
                    to, return_index=True, return_counts=True
                )
                order = np.argsort(first)
                src.append(np.full(order.size, m, dtype=np.int64))
                dst.append(masters[order])
                nbytes.append(update_bytes * counts[order])
                step.update_bytes[m] += update_bytes * int(to.size)
            buffer.append(emit_v, res["emit_values"])
        # every frontier transfer, then every update message
        self.network.send_many(
            np.concatenate(src), np.concatenate(dst), "push",
            np.concatenate(nbytes),
        )
        record.push_bytes = int(sum(b.sum() for b in nbytes[1:]))
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

    def _map_pull(
        self,
        analyzed: AnalyzedSignal,
        state: StateStore,
        table: Dict,
        stalls=None,
        steps: Tuple[int, int] = (0, 1),
        carried: Optional[Dict[str, np.dtype]] = None,
        dep_in=None,
    ) -> List:
        """Map the walk (:func:`~repro.exec.work.pull_walk`) of the
        phase's ``table`` over ``steps``, one item per row of its
        machine table.  The first map whose units shared a kernel call
        is mapped again with every unit alone."""
        fast, udf = self.fastpaths, analyzed.original
        use_kernel = fast.plan(KERNEL, udf, state, analyzed) is not None
        shared = dict(table=table, steps=steps, carried=carried or {},
                      dep_in=dep_in, signal=analyzed, use_kernel=use_kernel,
                      timed=self.obs is not None,
                      solo=fast.refuted(BLOCK, udf))
        items = list(range(len(table["machine"])))
        certifying = use_kernel and fast.checking(BLOCK, udf)
        scan = self.executor.scan
        sharing = scan["units"] - scan["blocks"]
        results = self._map_machines(
            work.pull_walk, shared, items, state, stalls
        )
        if certifying and scan["units"] - scan["blocks"] > sharing:
            results = fast.certified(
                BLOCK, udf, results, self._map_machines(
                    work.pull_walk, {**shared, "solo": True}, items, state
                ),
            )
        return results

    def _pull_table(
        self, dep: Optional[np.ndarray], plain: np.ndarray, circulant: bool
    ) -> Dict:
        """The table a pull phase's walk reads.

        Per lane, one ``(vertices, cuts)``: machine ``m``'s row is the
        vertices of the lane's mask (``dep`` None: no dependency lane)
        that ``m`` stores in-edges of, the rows end to end in
        ``vertices``, and item ``j``'s share of row ``m`` is
        ``vertices[cuts[m, j]:cuts[m, j + 1]]``
        (:func:`~repro.exec.work.unit_lane`); and ``machine[j][s]``, the
        machine that scans item ``j`` in step ``s``.  A circulant
        phase's items are the destination partitions: rows in master
        order, cut at the master bounds, item ``j`` scanned by machine
        ``(j - s - 1) % p`` in step ``s``.  A BSP phase's item ``m`` is
        machine ``m``'s whole row in one step, in ascending vertex order
        — never master order, so its update sends stay ascending.  The
        last table is kept: a phase over the masks of the one before
        (every PageRank phase after the first) gets it back, its
        ``serial`` too: workers keep lane plans under it
        (:class:`~repro.exec.work.PlanStore`).
        """
        memo = self._table
        if (
            memo is not None and memo[0] == circulant
            and _same_mask(memo[1], dep) and _same_mask(memo[2], plain)
        ):
            return memo[3]
        p, part = self.num_machines, self.partition
        ids = np.arange(p + 1)
        order = part._master_order if circulant else None
        has_in = part._has_in if order is None else part._has_in[:, order]
        item = ids[:p, None]
        table = {"serial": next(_TABLE_SERIAL),
                 "machine": (item - ids[:p] - 1) % p if circulant else item}
        for lane, mask in (("dep", dep), ("plain", plain)):
            cuts = np.zeros((p, p + 1), dtype=np.int64)
            if mask is None or not mask.any():  # no row pass for nothing
                table[lane] = (_NO_VERTICES, cuts)
                continue
            if order is not None:
                mask = mask[order]
            rows, base = [], 0
            for m, row in enumerate(has_in):
                at = np.flatnonzero(row & mask)
                cuts[m] = base + (
                    np.searchsorted(at, part._master_bounds) if circulant
                    else np.where(ids > m, at.size, 0)
                )
                rows.append(at if order is None else order[at])
                base += at.size
            table[lane] = (np.concatenate(rows), cuts)
        self._table = (circulant, None if dep is None else dep.copy(),
                       plain.copy(), table)
        return table

    def _merge_steps(
        self,
        walked: List[Dict],
        buffer: _UpdateBuffer,
        update_bytes: int,
        plain_column: str,
        handoffs: Optional[Sequence[Sequence[int]]] = None,
        slowdown: Optional[Sequence[np.ndarray]] = None,
        first: Optional[int] = None,
    ) -> List[StepRecord]:
        """Merge a map's walked steps (:func:`~repro.exec.work.pull_walk`'s
        array sets, one per executor chunk, joined into the ``(steps,
        p)`` grid of units) and return their step records (with
        ``slowdown[s]``, else none), each column a row of one array:
        lane metering (the dependency lane, there when ``handoffs`` is,
        under ``high_*``; the plain lane under ``plain_column``'s pair,
        which the cost model prices apart), update and hand-off bytes.
        Then the update bins, in unit order, and the messages: an update
        per emitting vertex to its master (free where that is the
        unit's own machine) and a hand-off of ``handoffs[s][m]`` bytes
        (where nonzero) to the machine on its left — per ``(tag, src,
        dst)`` sums, or, when the network books single messages, one
        list ordered step by step and unit by unit, each hand-off after
        its unit's updates.  Observer events go out unit by unit, each
        step's between its ``step_begin`` and ``step_end`` when
        ``first`` (the index of the first step) is given.
        """
        p = self.num_machines
        walk = work.joined(walked, p)
        units = walk["m"].size
        n = units // p
        keys = {plain_column + "_edges": "plain_edges",
                plain_column + "_vertices": "plain_vertices"}
        if handoffs is not None:
            keys.update(high_edges="dep_edges", high_vertices="dep_vertices")
        sent = np.zeros(units, dtype=np.int64) if handoffs is None else (
            np.asarray(handoffs, dtype=np.int64).ravel()
        )
        booked = {"dep_bytes": sent}
        for column, key in keys.items():
            booked[column] = walk[key]
        for v, values in work.update_bins(walk):
            buffer.append(v, values)
        # per (unit, destination master): update messages, and values
        # where a vertex emitted more than once
        emit_n, counts = walk["emit_n"], walk["emit_counts"]
        dst = self.partition.master_of[walk["emit_v"]]
        key = np.repeat(np.arange(units) * p, emit_n)
        key += dst
        messages = np.bincount(key, minlength=units * p).reshape(-1, p)
        values = messages if counts is None else np.bincount(
            key, weights=counts, minlength=units * p
        ).astype(np.int64).reshape(-1, p)
        booked["update_bytes"] = update_bytes * (
            values.sum(axis=1) - values[np.arange(units), walk["m"]]
        )
        handing = np.flatnonzero(sent)
        if self.network.per_message:
            self._send_ordered(walk, dst, update_bytes, sent, handing)
        else:
            # (messages, bytes) per (tag, src, dst): the units of a
            # machine are every p-th row, its hand-offs go to m - 1
            sums = np.zeros((2, len(COMM_TAGS), p, p), dtype=np.int64)
            sums[:, _UPDATE] = messages.reshape(n, p, p).sum(axis=0), (
                update_bytes * values.reshape(n, p, p).sum(axis=0)
            )
            src = handing % p
            np.add.at(sums[0, _DEP], (src, (src - 1) % p), 1)
            np.add.at(sums[1, _DEP], (src, (src - 1) % p), sent[handing])
            self.network.book(*sums)
        booked = {name: array.reshape(n, p) for name, array in booked.items()}
        zeros = np.zeros((n, p), dtype=np.int64)
        steps = [
            StepRecord(p, slowdown=None if slowdown is None else slowdown[k],
                       **{name: booked.get(name, zeros)[k]
                          for name in StepRecord.COUNTS})
            for k in range(n)
        ]
        if self.obs is not None:
            self._observe_steps(walk, steps, sent, first)
        return steps

    def _send_ordered(self, walk, dst, update_bytes, sent, handing) -> None:
        """The merged units' messages as one ordered list, for a network
        that books single messages: step by step and unit by unit, an
        update per emitting vertex, then the unit's hand-off."""
        p, emit_n = self.num_machines, walk["emit_n"]
        counts = walk["emit_counts"]
        src = np.repeat(walk["m"], emit_n)
        nbytes = (np.full(dst.size, update_bytes, dtype=np.int64)
                  if counts is None else update_bytes * counts)
        tags = np.full(src.size, _UPDATE)
        if handing.size:  # each hand-off goes after its unit's updates
            src, dst, nbytes, tags = (
                np.insert(array, np.cumsum(emit_n)[handing], value)
                for array, value in (
                    (src, handing % p), (dst, (handing - 1) % p),
                    (nbytes, sent[handing]), (tags, _DEP),
                )
            )
        if src.size:
            self.network.send_many(src, dst, tags, nbytes)

    def _observe_steps(self, walk, steps, sent, first) -> None:
        """The merged steps' events, unit by unit: a kernel batch per
        lane scanned, then the unit's hand-off; ``step_end`` feeds no
        metric, so only a tracing hub is sent it.  A hub with no tracer
        is handed the walk's counts instead: its batches (their seconds
        observed at once), hand-offs and steps, in one tally."""
        obs, p, kind = self.obs, self.num_machines, walk["kind"]
        if obs.tracer is None:
            lanes = ("dep", "plain") if kind is not None else ()
            batches = [
                seconds for lane in lanes for vertices, seconds in zip(
                    walk[lane + "_vertices"].tolist(),
                    walk[lane + "_seconds"].tolist(),
                ) if vertices
            ]
            obs.tally(
                step_begin=(len(steps), {}),
                kernel_batch=(len(batches),
                              {"kernel": kind, "seconds": batches}),
                dep_transfer=(int(np.count_nonzero(sent)),
                              {"bytes": int(sent.sum())}),
            )
            return
        lanes = {
            lane: [walk[f"{lane}_{what}"].tolist()
                   for what in ("vertices", "edges", "seconds")]
            for lane in ("dep", "plain")
        } if kind is not None else {}
        sent = sent.tolist()
        for k, step in enumerate(steps):
            if first is not None:
                obs.emit("step_begin", step=first + k)
            for u in range(k * p, (k + 1) * p):
                m = u - k * p
                for vertices, edges, seconds in lanes.values():
                    if vertices[u]:
                        obs.emit("kernel_batch", machine=m, kernel=kind,
                                 vertices=vertices[u], edges=edges[u],
                                 seconds=seconds[u])
                if sent[u]:
                    obs.emit("dep_transfer", src=m, dst=(m - 1) % p,
                             bytes=sent[u])
            if first is not None:
                obs.emit("step_end", step=first + k, **step.payload())

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
        traced = self._traced
        if traced is not None:
            for s, step in enumerate(() if steps_traced else steps):
                traced.emit("step_begin", step=s)
                traced.emit("step_end", step=s, **step.payload())
            traced.emit("phase_end", mode=record.mode, steps=len(steps),
                        sync_bytes=int(record.sync_bytes),
                        push_bytes=int(record.push_bytes))
        elif self.obs is not None and record.mode == "push":
            # a merged walk tallied its own steps; a push step is here
            self.obs.tally(step_begin=(len(steps), {}))
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
        active: np.ndarray,
        update_bytes: int,
        sync_bytes: int,
    ) -> PhaseResult:
        """BSP parallel pull: one step in which every machine scans its
        local in-edges of every active vertex on the plain lane —
        Gemini's schedule, and SympleGraph's when there is no dependency
        to enforce (Section 5.1's special case): the one-step walk of a
        table with no dependency lane."""
        phase = self._phase_begin("pull")
        step = self._make_step(phase)
        buffer = _UpdateBuffer()
        walked = self._map_pull(
            analyzed, state, self._pull_table(None, active, circulant=False),
            stalls=step.slowdown,
        )
        step, = self._merge_steps(
            walked, buffer, update_bytes, "high", slowdown=[step.slowdown],
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
        arr = sorted_unique(arr.astype(np.int64))
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
        p = self.num_machines
        masters = self.partition.master_of[changed] * 256
        # pairs[receiver, master]: changed vertices the master sends.
        # Each (master, holder byte) is counted once, then the byte's
        # bits spread the count over its eight receivers
        pairs = np.empty((p, p), dtype=np.int64)
        for g, code in enumerate(self._holder_codes()):
            counts = np.bincount(masters + code[changed], minlength=p * 256)
            spread = counts.reshape(p, 256) @ _BYTE_BITS
            pairs[8 * g: 8 * g + 8] = spread.T[: p - 8 * g]
        np.fill_diagonal(pairs, 0)  # a master keeps its own state
        # receiver ascending, then master: one message per pair
        receiver, sender = np.nonzero(pairs)
        nbytes = pairs[receiver, sender] * sync_bytes
        self.network.send_many(sender, receiver, "sync", nbytes)
        record.sync_bytes += int(nbytes.sum())

    def _holder_codes(self) -> np.ndarray:
        """Each vertex's replica holders as bits, eight machines a byte:
        bit b of ``codes[g, v]`` is set where machine ``8g + b`` holds
        edges of ``v`` (the bitmaps of :attr:`sync_scope`, packed once
        per engine)."""
        if self._codes is None:
            part = self.partition
            held = part._has_in
            if self.sync_scope == "both":
                held = held | part._has_out
            codes = np.zeros((-(-held.shape[0] // 8), held.shape[1]),
                             dtype=np.uint8)
            for m, row in enumerate(held.view(np.uint8)):
                codes[m // 8] |= row << (m % 8)
            self._codes = codes
        return self._codes

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
            if self._traced is not None:
                self.obs.emit("implicit_record", machines=self.num_machines)
        target = self.counters.iterations[-1]
        before = target.sync_bytes
        self._count_sync(vertices, sync_bytes, target)
        if self._traced is not None and target.sync_bytes != before:
            # the delta mutates an already-committed record; the trace
            # carries it so reconstruction stays exact
            self.obs.emit("sync_update",
                          record=len(self.counters.iterations) - 1,
                          bytes=int(target.sync_bytes - before))

    # -- results --------------------------------------------------------------

    def pricing_keywords(self) -> Dict[str, Any]:
        """The options :meth:`CostModel.execution_time` prices this
        engine's runs with, as its keywords (none here)."""
        return {}

    def execution_time(self, cost_model: Optional[CostModel] = None) -> float:
        """Simulated execution time of everything run so far: the one
        place an engine's run is priced."""
        model = cost_model or self.default_cost
        return model.execution_time(self.counters, self.cost_kind,
                                    **self.pricing_keywords())

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
        return arr

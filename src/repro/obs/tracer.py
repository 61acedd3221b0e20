"""Structured event tracing.

A :class:`Tracer` records span-style begin/end events for everything
the runtime does — engine phases, circulant steps, dependency
transfers, kernel batches, checkpoints, recovery rollbacks — as plain
dicts with a monotonically increasing sequence number.  Events live in
a bounded in-memory ring buffer (old events are dropped, never the
run), and, when a ``path`` is given, stream to disk as JSON Lines so a
crash loses at most the unflushed tail.

The schema is one closed table, :data:`EVENT_KINDS`: each kind's row
names the keys it must carry, the ones the hub fills in from the open
span, and the live metrics it moves.  :class:`~repro.obs.hooks.ObsHub`
emits from it, and :func:`validate_events` checks a trace against it
(``repro trace FILE``; CI runs it on traced BFS, async BFS and faulted
k-core runs).  Every numeric field is either an
exact integer or a ``float64`` round-tripped through ``repr``, so a
trace is *complete*: :func:`repro.obs.attribution.rebuild_counters`
reconstructs the run's :class:`~repro.runtime.counters.Counters`
bit-for-bit and the cost-model breakdown recomputed from a trace
matches the live run exactly.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ReproError
from repro.runtime.counters import StepRecord

__all__ = [
    "EVENT_KINDS",
    "EventKind",
    "Feed",
    "Tracer",
    "read_trace",
    "validate_events",
    "summarize_events",
]


@dataclass(frozen=True)
class Feed:
    """One live metric an event moves.

    ``amount`` is the event field (or a constant) a counter grows by, a
    gauge is set to or a histogram observes; ``labels`` are event
    fields read as label values, ``fixed`` constant ``(label, value)``
    pairs.
    """

    name: str
    help: str
    type: str = "counter"
    amount: Union[str, int] = 1
    labels: Tuple[str, ...] = ()
    fixed: Tuple[Tuple[str, str], ...] = ()
    buckets: Tuple[float, ...] = ()


@dataclass(frozen=True)
class EventKind:
    """One row of the event table.

    ``fields`` are the keys the emitting call site passes (it may pass
    more: ``run_end`` does); ``context`` the keys, a prefix of
    ``("phase", "step")``, that :class:`~repro.obs.hooks.ObsHub` fills
    in ahead of them from the open span; ``feeds`` the live metrics the
    event moves.
    """

    fields: Tuple[str, ...]
    context: Tuple[str, ...] = ()
    feeds: Tuple[Feed, ...] = ()

    @property
    def required(self) -> Tuple[str, ...]:
        """Keys every event of the kind carries (beyond seq and kind)."""
        return self.context + self.fields


_PHASE, _SPAN = ("phase",), ("phase", "step")
_BACKEND = ("backend",)
_WALL = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0)  # wall-clock buckets, seconds
_EDGES_HELP = "edges inserted or deleted"

#: the event table: kind -> its row
EVENT_KINDS: Dict[str, EventKind] = {
    # engine phases (one pull or push call); the hub adds phase_end's
    # wall-clock ``seconds``
    "phase_begin": EventKind(
        ("phase", "mode", "engine", "machines"),
        feeds=(Feed("repro_phases_total", "engine phases started",
                    labels=("mode",)),)),
    "phase_end": EventKind(
        ("mode", "steps", "sync_bytes", "push_bytes"), _PHASE),
    # circulant steps (one per phase for the BSP engines)
    "step_begin": EventKind(
        ("step",), _PHASE,
        (Feed("repro_steps_total", "circulant steps executed"),)),
    "step_end": EventKind(("step",) + StepRecord.COLUMNS, _PHASE),
    # dependency hand-off at a circulant step boundary
    "dep_transfer": EventKind(
        ("src", "dst", "bytes"), _SPAN,
        (Feed("repro_dep_transfers_total", "dependency hand-offs sent"),
         Feed("repro_dep_transfer_bytes_total", "dependency hand-off bytes",
              amount="bytes"))),
    # batched-kernel fast-path invocations (wall-clock profiled)
    "kernel_batch": EventKind(
        ("machine", "kernel", "vertices", "edges", "seconds"), _SPAN,
        (Feed("repro_kernel_batches_total", "batched kernel invocations",
              labels=("kernel",)),
         Feed("repro_kernel_batch_seconds",
              "wall-clock seconds per kernel batch", "histogram", "seconds",
              buckets=_WALL))),
    # executor dispatch spans (one map_machines call each); the
    # backend/workers fields are run configuration, like "seconds" —
    # everything that feeds counter reconstruction lives elsewhere
    "exec_map_begin": EventKind(
        ("backend", "workers", "tasks"), _SPAN,
        (Feed("repro_exec_maps_total", "executor map_machines dispatches",
              labels=_BACKEND),)),
    "exec_map_end": EventKind(
        ("backend", "tasks", "seconds"), _SPAN,
        (Feed("repro_exec_map_seconds",
              "wall-clock seconds per executor map", "histogram", "seconds",
              buckets=_WALL + (10.0,)),)),
    # a concurrent backend ran one map inline (unpicklable payload)
    "exec_fallback": EventKind(
        ("backend", "reason"),
        feeds=(Feed("repro_exec_fallbacks_total",
                    "executor maps that degraded to inline execution",
                    labels=_BACKEND),)),
    # a persistent worker pool was (re)spawned — spawns > 1 means a
    # crash respawn; generation tracks topology remaps without respawn
    "exec_pool_spawn": EventKind(
        ("backend", "workers", "generation", "spawns"),
        feeds=(Feed("repro_exec_pool_spawns_total",
                    "worker pool spawns (first start + crash respawns)",
                    labels=_BACKEND),
               Feed("repro_exec_pool_workers", "workers in the live pool",
                    "gauge", "workers", _BACKEND),
               Feed("repro_exec_pool_generation",
                    "topology generation the pool is serving", "gauge",
                    "generation", _BACKEND))),
    # a shared-memory delta arena grew geometrically to a new capacity
    "exec_arena_grow": EventKind(
        ("backend", "arena", "bytes"),
        feeds=(Feed("repro_exec_arena_grows_total",
                    "shared-memory arena geometric growths",
                    labels=("arena",)),
               Feed("repro_exec_arena_bytes", "shared-memory arena capacity",
                    "gauge", "bytes", ("arena",)))),
    # out-of-phase sync broadcast (BaseEngine.sync_state)
    "sync_update": EventKind(("record", "bytes")),
    # implicit iteration record created by sync_state on a fresh engine
    "implicit_record": EventKind(("machines",)),
    # async bucket scheduler: one priority bucket drained (bucket_begin
    # opens the [lo, hi) priority range with `size` pending vertices;
    # bucket_end reports the activation waves the drain took)
    "bucket_begin": EventKind(
        ("bucket", "lo", "hi", "size"),
        feeds=(Feed("repro_buckets_total", "priority buckets drained"),)),
    "bucket_end": EventKind(
        ("bucket", "waves", "activations"),
        feeds=(Feed("repro_async_activations_total",
                    "vertex activations under the async scheduler",
                    amount="activations"),)),
    # fault tolerance; a crash aborts the open phase, and the hub
    # closes the span with it
    "checkpoint": EventKind(
        ("superstep", "bytes", "record"),
        feeds=(Feed("repro_checkpoints_total", "checkpoints written"),
               Feed("repro_checkpoint_bytes_total",
                    "checkpoint bytes written", amount="bytes"))),
    "restore": EventKind(
        ("superstep", "bytes", "record"),
        feeds=(Feed("repro_restores_total", "checkpoint restores"),)),
    "crash": EventKind(
        ("machine", "iteration", "step"),
        feeds=(Feed("repro_crashes_total", "injected machine crashes"),)),
    "rollback": EventKind(
        ("recoveries", "superstep", "restored", "from_scratch", "penalty"),
        feeds=(Feed("repro_rollbacks_total", "recovery rollbacks"),)),
    # run summary (emitted once when the harness finishes, with the
    # double_buffering and schedule the cost model priced it under)
    "run_end": EventKind(("engine", "machines", "summary")),
    # dynamic graphs: one batch of edge/vertex mutations was applied
    "mutation_apply": EventKind(
        ("graph_version", "inserts", "deletes", "add_vertices", "num_edges"),
        feeds=(Feed("repro_mutations_total", "mutation batches applied"),
               Feed("repro_mutated_edges_total", _EDGES_HELP,
                    amount="inserts", fixed=(("op", "insert"),)),
               Feed("repro_mutated_edges_total", _EDGES_HELP,
                    amount="deletes", fixed=(("op", "delete"),)),
               Feed("repro_graph_version", "current dynamic-graph version",
                    "gauge", "graph_version"))),
    # a cached partition was incrementally refreshed after a mutation:
    # schedule_cells counts the circulant cells the batch dirtied
    # (out of machines^2), touched/reused count rebuilt machines
    "partition_refresh": EventKind(
        ("strategy", "machines", "graph_version", "touched_machines",
         "reused_machines", "schedule_cells", "total_cells"),
        feeds=(Feed("repro_partition_refreshes_total",
                    "incremental partition refreshes", labels=("strategy",)),
               Feed("repro_schedule_cells_invalidated_total",
                    "circulant schedule cells dirtied by mutations",
                    amount="schedule_cells"))),
}

# keys carrying wall-clock measurements: legitimate to differ between
# two otherwise identical runs (see tests/test_obs_equivalence.py)
VOLATILE_KEYS = ("seconds",)


def _json_default(value: Any):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value)!r}")


def _json_line(event: Dict[str, Any]) -> str:
    return json.dumps(event, separators=(",", ":"),
                      default=_json_default) + "\n"


class Tracer:
    """Bounded ring buffer of trace events with optional JSONL streaming.

    ``capacity`` bounds the in-memory buffer (oldest events are evicted
    and counted in :attr:`dropped`); ``path`` additionally streams every
    event to a JSONL file, opened lazily on the first emit so an unused
    tracer costs nothing.
    """

    def __init__(self, path: Optional[str] = None,
                 capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ReproError("tracer capacity must be positive")
        self.path = path
        self.capacity = capacity
        self.dropped = 0
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self._fh = None

    # -- recording -------------------------------------------------------

    def emit(self, kind: str, **data: Any) -> Dict[str, Any]:
        """Append one event; returns the event dict (with its seq)."""
        self._seq += 1
        event = {"seq": self._seq, "kind": kind, **data}
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        if self.path is not None:
            if self._fh is None:
                self._fh = open(self.path, "w", encoding="utf-8")
            self._fh.write(_json_line(event))
        return event

    # -- access ----------------------------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Buffered events, oldest first (bounded by ``capacity``)."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def to_jsonl(self, path: str) -> None:
        """Dump the buffered events to ``path`` as JSON Lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(map(_json_line, self._ring))

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file back into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{lineno}: invalid trace JSON: {exc}"
                ) from None
            if not isinstance(event, dict):
                raise ReproError(
                    f"{path}:{lineno}: trace event must be a JSON object"
                )
            events.append(event)
    return events


def validate_events(events: Iterable[Dict[str, Any]]) -> List[str]:
    """Schema-check a trace; returns a list of problems (empty = valid).

    Checks: known kinds, required keys present, strictly increasing
    ``seq``, per-machine array lengths on ``step_end`` events, and
    phase begin/end nesting.
    """
    problems: List[str] = []
    last_seq = 0
    machines: Optional[int] = None
    open_phase: Optional[int] = None
    for i, event in enumerate(events):
        where = f"event {i}"
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        seq = event.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(
                f"{where}: seq {seq!r} not strictly increasing"
            )
        else:
            last_seq = seq
        missing = [k for k in EVENT_KINDS[kind].required
                   if k not in event]
        if missing:
            problems.append(f"{where}: {kind} missing keys {missing}")
            continue
        if kind == "phase_begin":
            # an aborted phase (injected crash) never ends; the next
            # phase_begin supersedes it
            machines = event["machines"]
            open_phase = event["phase"]
        elif kind == "phase_end":
            if open_phase is None:
                problems.append(f"{where}: phase_end without phase_begin")
            open_phase = None
        elif kind == "step_end" and machines is not None:
            for key in StepRecord.COLUMNS:
                arr = event[key]
                if not isinstance(arr, list) or len(arr) != machines:
                    problems.append(
                        f"{where}: step_end {key} is not a "
                        f"{machines}-machine array"
                    )
        elif kind == "run_end":
            summary = event["summary"]
            if not isinstance(summary, dict):
                problems.append(f"{where}: run_end summary not an object")
            else:
                for key in ("edges_traversed", "total_bytes",
                            "messages_by_tag", "penalty_time"):
                    if key not in summary:
                        problems.append(
                            f"{where}: run_end summary missing {key!r}"
                        )
    return problems


def summarize_events(events: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """Event counts by kind — the ``repro trace`` one-line overview."""
    return dict(Counter(event.get("kind", "?") for event in events))

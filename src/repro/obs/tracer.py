"""Structured event tracing.

A :class:`Tracer` records span-style begin/end events for everything
the runtime does — engine phases, circulant steps, dependency
transfers, kernel batches, checkpoints, recovery rollbacks — as plain
dicts with a monotonically increasing sequence number.  Events live in
a bounded in-memory ring buffer (old events are dropped, never the
run), and, when a ``path`` is given, stream to disk as JSON Lines so a
crash loses at most the unflushed tail.

The schema is deliberately small and closed: :data:`EVENT_KINDS` maps
each event kind to the keys it must carry, and :func:`validate_events`
checks a trace against it — the CI gate runs it on every traced
benchmark run (``repro trace FILE``).  Every numeric field is either an
exact integer or a ``float64`` round-tripped through ``repr``, so a
trace is *complete*: :func:`repro.obs.attribution.rebuild_counters`
reconstructs the run's :class:`~repro.runtime.counters.Counters`
bit-for-bit and the cost-model breakdown recomputed from a trace
matches the live run exactly.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.errors import ReproError

__all__ = [
    "EVENT_KINDS",
    "Tracer",
    "read_trace",
    "validate_events",
    "summarize_events",
]

# kind -> required keys (beyond "seq" and "kind")
EVENT_KINDS: Dict[str, tuple] = {
    # engine phases (one pull or push call)
    "phase_begin": ("phase", "mode", "engine", "machines"),
    "phase_end": ("phase", "mode", "steps", "sync_bytes", "push_bytes"),
    # circulant steps (one per phase for the BSP engines)
    "step_begin": ("phase", "step"),
    "step_end": (
        "phase",
        "step",
        "high_edges",
        "low_edges",
        "high_vertices",
        "low_vertices",
        "update_bytes",
        "dep_bytes",
        "slowdown",
    ),
    # dependency hand-off at a circulant step boundary
    "dep_transfer": ("phase", "step", "src", "dst", "bytes"),
    # batched-kernel fast-path invocations (wall-clock profiled)
    "kernel_batch": ("phase", "machine", "kernel", "vertices", "edges",
                     "seconds"),
    # executor dispatch spans (one map_machines call each); the
    # backend/workers fields are run configuration, like "seconds" —
    # everything that feeds counter reconstruction lives elsewhere
    "exec_map_begin": ("phase", "step", "backend", "workers", "tasks"),
    "exec_map_end": ("phase", "step", "backend", "tasks", "seconds"),
    # a concurrent backend ran one map inline (unpicklable payload)
    "exec_fallback": ("backend", "reason"),
    # a persistent worker pool was (re)spawned — spawns > 1 means a
    # crash respawn; generation tracks topology remaps without respawn
    "exec_pool_spawn": ("backend", "workers", "generation", "spawns"),
    # a shared-memory delta arena grew geometrically to a new capacity
    "exec_arena_grow": ("backend", "arena", "bytes"),
    # out-of-phase sync broadcast (BaseEngine.sync_state)
    "sync_update": ("record", "bytes"),
    # implicit iteration record created by sync_state on a fresh engine
    "implicit_record": ("machines",),
    # async bucket scheduler: one priority bucket drained (bucket_begin
    # opens the [lo, hi) priority range with `size` pending vertices;
    # bucket_end reports the activation waves the drain took)
    "bucket_begin": ("bucket", "lo", "hi", "size"),
    "bucket_end": ("bucket", "waves", "activations"),
    # fault tolerance
    "checkpoint": ("superstep", "bytes", "record"),
    "restore": ("superstep", "bytes", "record"),
    "crash": ("machine", "iteration", "step"),
    "rollback": ("recoveries", "superstep", "restored", "from_scratch",
                 "penalty"),
    # run summary (emitted once when the harness finishes)
    "run_end": ("engine", "machines", "summary"),
    # dynamic graphs: one batch of edge/vertex mutations was applied
    "mutation_apply": ("graph_version", "inserts", "deletes",
                       "add_vertices", "num_edges"),
    # a cached partition was incrementally refreshed after a mutation:
    # schedule_cells counts the circulant cells the batch dirtied
    # (out of machines^2), touched/reused count rebuilt machines
    "partition_refresh": ("strategy", "machines", "graph_version",
                          "touched_machines", "reused_machines",
                          "schedule_cells", "total_cells"),
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
            self._fh.write(
                json.dumps(event, separators=(",", ":"),
                           default=_json_default)
                + "\n"
            )
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
            for event in self._ring:
                fh.write(
                    json.dumps(event, separators=(",", ":"),
                               default=_json_default)
                    + "\n"
                )

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
        missing = [k for k in EVENT_KINDS[kind] if k not in event]
        if missing:
            problems.append(f"{where}: {kind} missing keys {missing}")
            continue
        if kind == "phase_begin":
            machines = event["machines"]
            if open_phase is not None:
                # an aborted phase (injected crash) never ends; only one
                # may be open at a time
                pass
            open_phase = event["phase"]
        elif kind == "phase_end":
            if open_phase is None:
                problems.append(f"{where}: phase_end without phase_begin")
            open_phase = None
        elif kind == "step_end" and machines is not None:
            for key in ("high_edges", "low_edges", "high_vertices",
                        "low_vertices", "update_bytes", "dep_bytes",
                        "slowdown"):
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
    counts: Dict[str, int] = {}
    for event in events:
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    return counts

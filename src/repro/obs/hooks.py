"""Profiling-hook hub: the registration API the runtime reports into.

An :class:`ObsHub` is the single object an engine carries (attached via
``BaseEngine.attach_observer``, ``make_engine(obs=...)``, or
``RunConfig(obs=...)``).  The engines, the kernel fast path, and
the fault subsystem call its event methods at phase boundaries; the hub
fans each event out to

* the :class:`~repro.obs.tracer.Tracer` (when one is configured),
* its live :class:`~repro.obs.metrics.MetricsRegistry`, and
* any *profiling hooks* registered with :meth:`register` — plain
  objects exposing ``on_<kind>(event)`` methods (or a catch-all
  ``on_event(event)``), called synchronously with the event dict.

Overhead contract: engines guard every call site with
``if self.obs is not None`` — a run without an attached hub pays one
attribute load and a None check per phase, nothing else (asserted by
the perf-smoke gate's <2% budget).  Wall-clock spans (``seconds`` on
phase and kernel-batch events) are measured only while a hub is
attached.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, fill_run_metrics
from repro.obs.tracer import Tracer

__all__ = ["ObsHub", "step_record_payload"]


def step_record_payload(step) -> Dict[str, Any]:
    """JSON-exact payload of a StepRecord's per-machine arrays."""
    return {
        "high_edges": step.high_edges.tolist(),
        "low_edges": step.low_edges.tolist(),
        "high_vertices": step.high_vertices.tolist(),
        "low_vertices": step.low_vertices.tolist(),
        "update_bytes": step.update_bytes.tolist(),
        "dep_bytes": step.dep_bytes.tolist(),
        "slowdown": step.slowdown.tolist(),
    }


class ObsHub:
    """Observability hub: tracer + live metrics + registered hooks."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hooks: List[Any] = []
        # current span context, so leaf events (dep transfers, kernel
        # batches) don't need the phase/step threaded through call sites
        self._phase: Optional[int] = None
        self._step: Optional[int] = None
        self._mode: Optional[str] = None
        self._phase_t0 = 0.0

    # -- construction helpers --------------------------------------------

    @classmethod
    def to_path(cls, path: str, capacity: int = 100_000) -> "ObsHub":
        """Hub streaming its trace to a JSONL file."""
        return cls(tracer=Tracer(path=path, capacity=capacity))

    @classmethod
    def coerce(cls, value: Any) -> "ObsHub":
        """Accept an ObsHub, a Tracer, or a trace-file path."""
        if isinstance(value, cls):
            return value
        if isinstance(value, Tracer):
            return cls(tracer=value)
        if isinstance(value, (str, bytes)):
            return cls.to_path(value)
        raise ReproError(
            f"cannot build an ObsHub from {type(value).__name__}; "
            "pass an ObsHub, a Tracer, or a trace-file path"
        )

    # -- hook registration -------------------------------------------------

    def register(self, hook: Any) -> None:
        """Register a profiling hook (``on_<kind>``/``on_event`` methods)."""
        if hook not in self._hooks:
            self._hooks.append(hook)

    def unregister(self, hook: Any) -> None:
        if hook in self._hooks:
            self._hooks.remove(hook)

    def _emit(self, kind: str, **data: Any) -> None:
        if self.tracer is not None:
            event = self.tracer.emit(kind, **data)
        else:
            event = {"kind": kind, **data}
        for hook in self._hooks:
            fn = getattr(hook, "on_" + kind, None)
            if fn is None:
                fn = getattr(hook, "on_event", None)
            if fn is not None:
                fn(event)

    # -- engine phase boundaries -------------------------------------------

    def phase_begin(self, phase: int, mode: str, engine: str,
                    machines: int) -> None:
        self._phase = phase
        self._step = 0
        self._mode = mode
        self._phase_t0 = time.perf_counter()
        self.metrics.counter(
            "repro_phases_total", "engine phases started",
            labels=("mode",),
        ).inc(mode=mode)
        self._emit("phase_begin", phase=phase, mode=mode, engine=engine,
                   machines=machines)

    def phase_end(self, record) -> None:
        self._emit(
            "phase_end",
            phase=self._phase,
            mode=record.mode,
            steps=len(record.steps),
            sync_bytes=int(record.sync_bytes),
            push_bytes=int(record.push_bytes),
            seconds=time.perf_counter() - self._phase_t0,
        )
        self._phase = None
        self._step = None
        self._mode = None

    def step_begin(self, step: int) -> None:
        self._step = step
        self.metrics.counter(
            "repro_steps_total", "circulant steps executed"
        ).inc()
        self._emit("step_begin", phase=self._phase, step=step)

    def step_end(self, step: int, record) -> None:
        self._emit("step_end", phase=self._phase, step=step,
                   **step_record_payload(record))

    def dep_transfer(self, src: int, dst: int, nbytes: int) -> None:
        self.metrics.counter(
            "repro_dep_transfers_total", "dependency hand-offs sent"
        ).inc()
        self.metrics.counter(
            "repro_dep_transfer_bytes_total", "dependency hand-off bytes"
        ).inc(nbytes)
        self._emit("dep_transfer", phase=self._phase, step=self._step,
                   src=src, dst=dst, bytes=int(nbytes))

    def kernel_batch(self, machine: int, kernel: str, vertices: int,
                     edges: int, seconds: float) -> None:
        self.metrics.counter(
            "repro_kernel_batches_total", "batched kernel invocations",
            labels=("kernel",),
        ).inc(kernel=kernel)
        self.metrics.histogram(
            "repro_kernel_batch_seconds",
            "wall-clock seconds per kernel batch",
            buckets=(1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0),
        ).observe(seconds)
        self._emit("kernel_batch", phase=self._phase, step=self._step,
                   machine=machine, kernel=kernel, vertices=int(vertices),
                   edges=int(edges), seconds=seconds)

    def exec_map_begin(self, backend: str, workers: int,
                       tasks: int) -> None:
        self.metrics.counter(
            "repro_exec_maps_total", "executor map_machines dispatches",
            labels=("backend",),
        ).inc(backend=backend)
        self._emit("exec_map_begin", phase=self._phase, step=self._step,
                   backend=backend, workers=int(workers), tasks=int(tasks))

    def exec_map_end(self, backend: str, tasks: int,
                     seconds: float) -> None:
        self.metrics.histogram(
            "repro_exec_map_seconds",
            "wall-clock seconds per executor map",
            buckets=(1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0),
        ).observe(seconds)
        self._emit("exec_map_end", phase=self._phase, step=self._step,
                   backend=backend, tasks=int(tasks), seconds=seconds)

    def exec_fallback(self, backend: str, reason: str) -> None:
        self.metrics.counter(
            "repro_exec_fallbacks_total",
            "executor maps that degraded to inline execution",
            labels=("backend",),
        ).inc(backend=backend)
        self._emit("exec_fallback", backend=backend, reason=reason)

    def exec_pool_spawn(self, backend: str, workers: int, generation: int,
                        spawns: int) -> None:
        """A persistent worker pool came up (first spawn or crash respawn)."""
        self.metrics.counter(
            "repro_exec_pool_spawns_total",
            "worker pool spawns (first start + crash respawns)",
            labels=("backend",),
        ).inc(backend=backend)
        self.metrics.gauge(
            "repro_exec_pool_workers", "workers in the live pool",
            labels=("backend",),
        ).set(int(workers), backend=backend)
        self.metrics.gauge(
            "repro_exec_pool_generation",
            "topology generation the pool is serving",
            labels=("backend",),
        ).set(int(generation), backend=backend)
        self._emit("exec_pool_spawn", backend=backend, workers=int(workers),
                   generation=int(generation), spawns=int(spawns))

    def exec_arena_grow(self, backend: str, arena: str, bytes: int) -> None:
        """A shared-memory arena grew geometrically to ``bytes`` capacity."""
        self.metrics.counter(
            "repro_exec_arena_grows_total",
            "shared-memory arena geometric growths",
            labels=("arena",),
        ).inc(arena=arena)
        self.metrics.gauge(
            "repro_exec_arena_bytes", "shared-memory arena capacity",
            labels=("arena",),
        ).set(int(bytes), arena=arena)
        self._emit("exec_arena_grow", backend=backend, arena=arena,
                   bytes=int(bytes))

    def sync_update(self, record_index: int, nbytes: int) -> None:
        self._emit("sync_update", record=record_index, bytes=int(nbytes))

    def implicit_record(self, machines: int) -> None:
        self._emit("implicit_record", machines=machines)

    # -- async bucket scheduler boundaries ---------------------------------

    def bucket_begin(self, bucket: int, lo: float, hi: float,
                     size: int) -> None:
        """The async scheduler opened priority bucket ``[lo, hi)``."""
        self.metrics.counter(
            "repro_buckets_total", "priority buckets drained"
        ).inc()
        self._emit("bucket_begin", bucket=int(bucket), lo=float(lo),
                   hi=float(hi), size=int(size))

    def bucket_end(self, bucket: int, waves: int, activations: int) -> None:
        """A priority bucket drained after ``waves`` activation waves."""
        self.metrics.counter(
            "repro_async_activations_total",
            "vertex activations under the async scheduler",
        ).inc(int(activations))
        self._emit("bucket_end", bucket=int(bucket), waves=int(waves),
                   activations=int(activations))

    # -- fault-tolerance boundaries ---------------------------------------

    def checkpoint(self, superstep: int, nbytes: int,
                   record_index: Optional[int]) -> None:
        self.metrics.counter(
            "repro_checkpoints_total", "checkpoints written"
        ).inc()
        self.metrics.counter(
            "repro_checkpoint_bytes_total", "checkpoint bytes written"
        ).inc(nbytes)
        self._emit("checkpoint", superstep=superstep, bytes=int(nbytes),
                   record=record_index)

    def restore(self, superstep: int, nbytes: int,
                record_index: Optional[int]) -> None:
        self.metrics.counter(
            "repro_restores_total", "checkpoint restores"
        ).inc()
        self._emit("restore", superstep=superstep, bytes=int(nbytes),
                   record=record_index)

    def crash(self, machine: int, iteration: int, step: int) -> None:
        self.metrics.counter(
            "repro_crashes_total", "injected machine crashes"
        ).inc()
        self._emit("crash", machine=machine, iteration=iteration,
                   step=step)
        # a crash aborts the open phase; close the span context so the
        # next phase doesn't inherit it
        self._phase = None
        self._step = None
        self._mode = None

    def rollback(self, recoveries: int, superstep: int, restored: int,
                 from_scratch: bool, penalty: float) -> None:
        self.metrics.counter(
            "repro_rollbacks_total", "recovery rollbacks"
        ).inc()
        self._emit("rollback", recoveries=recoveries, superstep=superstep,
                   restored=restored, from_scratch=from_scratch,
                   penalty=penalty)

    # -- dynamic graphs ----------------------------------------------------

    def mutation_apply(self, graph_version: int, inserts: int,
                       deletes: int, add_vertices: int,
                       num_edges: int) -> None:
        """One mutation batch committed to a session's dynamic graph."""
        self.metrics.counter(
            "repro_mutations_total", "mutation batches applied"
        ).inc()
        self.metrics.counter(
            "repro_mutated_edges_total", "edges inserted or deleted",
            labels=("op",),
        ).inc(inserts, op="insert")
        self.metrics.counter(
            "repro_mutated_edges_total", "edges inserted or deleted",
            labels=("op",),
        ).inc(deletes, op="delete")
        self.metrics.gauge(
            "repro_graph_version", "current dynamic-graph version"
        ).set(int(graph_version))
        self._emit("mutation_apply", graph_version=int(graph_version),
                   inserts=int(inserts), deletes=int(deletes),
                   add_vertices=int(add_vertices),
                   num_edges=int(num_edges))

    def partition_refresh(self, strategy: str, machines: int,
                          graph_version: int, touched_machines: int,
                          reused_machines: int, schedule_cells: int,
                          total_cells: int) -> None:
        """A cached partition was incrementally refreshed."""
        self.metrics.counter(
            "repro_partition_refreshes_total",
            "incremental partition refreshes", labels=("strategy",),
        ).inc(strategy=strategy)
        self.metrics.counter(
            "repro_schedule_cells_invalidated_total",
            "circulant schedule cells dirtied by mutations",
        ).inc(schedule_cells)
        self._emit("partition_refresh", strategy=strategy,
                   machines=int(machines),
                   graph_version=int(graph_version),
                   touched_machines=int(touched_machines),
                   reused_machines=int(reused_machines),
                   schedule_cells=int(schedule_cells),
                   total_cells=int(total_cells))

    # -- run finalization --------------------------------------------------

    def run_end(self, engine, cost_model=None) -> None:
        """Close out a run: emit the summary event, fill run metrics.

        Called once by the harness (or manually after driving an engine
        directly).  ``cost_model`` defaults to the engine's own.
        """
        model = cost_model if cost_model is not None else engine.default_cost
        options = getattr(engine, "options", None)
        double_buffering = getattr(options, "double_buffering", True)
        schedule = getattr(options, "schedule", "circulant")
        fill_run_metrics(
            self.metrics,
            engine.counters,
            model,
            engine.cost_kind,
            double_buffering=double_buffering,
            schedule=schedule,
        )
        self._emit(
            "run_end",
            engine=engine.cost_kind,
            machines=engine.num_machines,
            summary=engine.counters.summary(),
            double_buffering=bool(double_buffering),
            schedule=schedule,
        )

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()

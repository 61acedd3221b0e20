"""Executor abstraction: where per-machine work units actually run.

Engines route each phase's work through one
``executor.map_machines(task_fn, shared, items, state, stalls)`` call
(items: machines, or a circulant pull's destination partitions — the
items of a pull phase's table); the executor decides *where* the task
functions run — inline (:class:`SerialExecutor`) or on forked worker
processes mapping the CSR topology and vertex state zero-copy out of
shared memory (:class:`~repro.exec.process.ProcessPoolExecutor`).
Results always come back in item order (a chunk form's once per
chunk: the walk returns one array set for its chunk's units) and the
parent merges them
deterministically, so counters, traffic, and results are bit-identical
across backends — the backend is purely a wall-clock knob.

Every backend runs a chunk of items through the same loop,
:meth:`repro.exec.work.WorkerContext.run`: a task that has a chunk
form (``pull_walk`` is its own, and scans the chunk's units together
in blocks) gets its whole chunk in one call — the map under the
serial backend, a worker's contiguous items under the process backend
— and any other task is called item by item.  Each context keeps the
lane plans of the pull table it last walked, under the serial that
travels with the table (:class:`~repro.exec.work.PlanStore`), so a
phase the engine hands the same table again is served them.  What the
scans counted (blocks, units, plans built and reused, bytes the kept
plans hold) comes back with each chunk and sums into
``Executor.stats()["scan"]``.

``stalls`` carries the fault controller's straggler factors, one per
item: the simulated cost model already charges them, and the process
backend additionally turns them into real wall-clock stalls (a chunk
sleeps, for each of its items slowed by factor f, (f-1) x that item's
edge share of the chunk's compute time).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import EngineError
from repro.exec.work import PlanStore, WorkerContext
from repro.graph.csr import is_integer

__all__ = [
    "Executor",
    "SerialExecutor",
    "make_executor",
    "EXECUTOR_KINDS",
]

EXECUTOR_KINDS = ("serial", "process")


class Executor:
    """Maps per-machine task functions; backends differ in where."""

    kind = "abstract"
    #: whether tasks may run concurrently — the verification gate uses
    #: this to decide if determinism hazards are load-bearing
    parallel = False

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and not (is_integer(workers) and workers >= 1):
            raise EngineError(
                f"workers must be an integer >= 1, got {workers!r}"
            )
        self.workers = 1 if workers is None else int(workers)
        self._ctx: Optional[WorkerContext] = None
        self._partition = None
        # reason the last map ran serially despite the backend, if any
        self.last_fallback: Optional[str] = None
        #: lifecycle events (``(kind, payload)``) accumulated since the
        #: last drain — pool spawns, arena growths; engines drain these
        #: into the observability stream (``kind`` is the event's) after
        #: each map call
        self.events: "deque[Tuple[str, Dict[str, Any]]]" = deque(maxlen=256)
        #: what the block scans of every map so far counted
        self.scan: Dict[str, int] = dict.fromkeys(PlanStore.COUNTERS, 0)

    def drain_events(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Pop and return all pending lifecycle events, oldest first."""
        out: List[Tuple[str, Dict[str, Any]]] = []
        while self.events:
            out.append(self.events.popleft())
        return out

    def stats(self) -> Dict[str, Any]:
        """Backend introspection snapshot (scan/pool/arena numbers)."""
        return {
            "kind": self.kind,
            "workers": int(self.workers),
            "scan": {**self.scan, "plan_bytes": int(self._plan_bytes())},
        }

    def _plan_bytes(self) -> int:
        """Bytes held by the scan plans of every context that scans."""
        return 0 if self._ctx is None else self._ctx.plans.nbytes

    def _context(self, state) -> WorkerContext:
        """The bound context, pointed at ``state``."""
        ctx = self._ctx
        if ctx is None:
            raise EngineError(
                f"the {self.kind} executor is not bound to a partition; "
                "install it with engine.attach_executor(executor) (or "
                "RunConfig(executor=...)) before mapping work onto it"
            )
        ctx.state = state
        return ctx

    def _run_inline(self, fn, shared, items, state) -> List[Any]:
        """Run a map's items in this process, against the bound context."""
        ctx = self._context(state)
        results = ctx.run(fn, shared, items)
        self._tally(ctx.plans.take())
        return results

    def _tally(self, counts: Dict[str, int]) -> None:
        for name, count in counts.items():
            self.scan[name] += count

    def bind(self, engine) -> None:
        """Target this executor at an engine's partition.

        Called by :meth:`BaseEngine.attach_executor`; rebinding to a
        different partition re-derives every cached view.
        """
        partition = engine.partition
        if partition is self._partition:
            return
        self._partition = partition
        p = partition.num_machines
        self._ctx = WorkerContext(
            [partition.local_in(m) for m in range(p)],
            [partition.local_out(m) for m in range(p)],
            partition.master_of,
            partition.graph.num_vertices,
        )
        self._rebind()

    def _rebind(self) -> None:
        """Backend hook run after the partition changed."""

    def map_machines(
        self,
        fn,
        shared: Dict[str, Any],
        items: Sequence[Dict[str, Any]],
        state,
        stalls=None,
    ) -> List[Any]:
        """Run ``fn`` (its chunk form, when it has one) over the items;
        the results in item order — one per item, or a chunk form's
        results for each chunk, chunk after chunk."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pools and shared-memory segments."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every task inline — the default, and the reference order."""

    kind = "serial"

    def map_machines(self, fn, shared, items, state, stalls=None):
        return self._run_inline(fn, shared, items, state)


def make_executor(spec=None, workers: Optional[int] = None) -> Executor:
    """Build an executor from a kind string, an instance, or ``None``.

    ``None`` and ``"serial"`` give the in-process reference backend;
    an :class:`Executor` instance passes through unchanged (``workers``
    must then be left unset).
    """
    if isinstance(spec, Executor):
        if workers is not None and workers != spec.workers:
            raise EngineError(
                "workers= conflicts with the explicit Executor instance; "
                "configure the instance instead"
            )
        return spec
    if spec is None or spec == "serial":
        return SerialExecutor(workers)
    if spec == "process":
        from repro.exec.process import ProcessPoolExecutor

        return ProcessPoolExecutor(workers)
    raise EngineError(
        f"unknown executor {spec!r}; expected one of {EXECUTOR_KINDS} "
        "or an Executor instance"
    )

"""The supported entry point: :class:`RunConfig` + :class:`Session`.

A :class:`RunConfig` is a frozen, serializable description of one
experiment — engine, algorithm, cluster size, seed, engine options,
fault plan, checkpointing policy, observability sink, and executor
backend.  A :class:`Session` binds a graph, caches the expensive
per-(strategy, machines) partitions and per-(backend, workers)
executors across runs, and executes configs under the paper's
measurement protocol:

    from repro import Session, RunConfig, rmat

    graph = rmat(scale=12, edge_factor=16, seed=7)
    with Session(graph) as session:
        result = session.run(RunConfig(engine="symple", algorithm="bfs"))
        print(result.simulated_time, result.digest())

``session.run(config, machines=32)`` applies keyword overrides via
:func:`dataclasses.replace`; ``run_many`` executes a sequence of
configs against the same cached artifacts.  Algorithm dispatch and
validation derive from :mod:`repro.algorithms.registry` — one
:class:`~repro.algorithms.registry.AlgorithmSpec` per algorithm is the
single source of truth for what runs, takes sources, and supports the
async mode.  (The pre-registry legacy free functions are
gone; see the migration stanza in ``docs/API.md``.)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.algorithms.registry import (
    MODES,
    get_spec,
    sourced_algorithms,
)
from repro.engine import (
    ASYNC_ENGINES,
    ENGINE_KINDS,
    SympleOptions,
    make_engine,
    partition_strategy,
)
from repro.errors import (
    EngineError,
    PartitionError,
    UnsupportedAlgorithmError,
    VerificationError,
)
from repro.exec import EXECUTOR_KINDS, Executor, make_executor
from repro.fault import FaultPlan
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import (
    DynamicGraph,
    MutationBatch,
    MutationStats,
    is_integer,
)
from repro.obs.hooks import ObsHub
from repro.partition import Partition
from repro.partition.delta import refresh_partition
from repro.runtime.cost_model import CostModel

__all__ = ["Checkpointing", "RunConfig", "Session"]

_VERIFY_MODES = ("off", "warn", "strict")
#: algorithms that accept an explicit ``sources`` tuple — the
#: multi-source batch entry the serving layer coalesces requests into
#: (registry-derived; kept as a module constant for importers)
SOURCED_ALGORITHMS = sourced_algorithms()


@dataclass(frozen=True)
class Checkpointing:
    """Checkpoint policy for recoverable runs.

    ``interval`` is the superstep period (0 disables checkpointing);
    ``retention`` bounds how many checkpoints the store keeps.
    """

    interval: int = 0
    retention: int = 2

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise EngineError(
                f"checkpoint interval must be >= 0, got {self.interval}"
            )
        if self.retention < 1:
            raise EngineError(
                f"checkpoint retention must be >= 1, got {self.retention}"
            )


@dataclass(frozen=True)
class RunConfig:
    """Frozen description of one experiment run.

    Everything the retired legacy keyword pile expressed, as one
    value that can be stored, compared, replaced field-wise
    (:func:`dataclasses.replace`), and round-tripped through
    :meth:`to_dict`/:meth:`from_dict` (minus the two live objects,
    ``obs`` and ``cost_model``, which are attachments rather than
    configuration).
    """

    engine: str = "symple"
    algorithm: str = "bfs"
    machines: int = 16
    seed: int = 0
    options: Optional[SympleOptions] = None
    faults: Optional[FaultPlan] = None
    checkpointing: Checkpointing = field(default_factory=Checkpointing)
    obs: Any = None
    executor: Any = "serial"
    workers: Optional[int] = None
    cost_model: Optional[CostModel] = None
    verify: str = "off"
    bfs_roots: int = 3
    kcore_k: int = 8
    kmeans_rounds: int = 2
    sources: Optional[Tuple[int, ...]] = None
    mode: str = "sync"
    async_bucket_width: Optional[float] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_KINDS:
            raise EngineError(
                f"unknown engine {self.engine!r}; "
                f"expected one of {ENGINE_KINDS}"
            )
        spec = get_spec(self.algorithm)
        if not spec.runnable:
            raise EngineError(
                f"algorithm {self.algorithm!r} is signal-only; it has "
                "no Session.run driver"
            )
        if self.mode not in MODES:
            raise EngineError(
                f"unknown mode {self.mode!r}; expected one of {MODES}"
            )
        if self.mode == "async":
            if self.engine not in ASYNC_ENGINES:
                raise EngineError(
                    f"mode='async' needs per-bucket activation, which "
                    f"the {self.engine!r} engine does not support; "
                    f"use one of {ASYNC_ENGINES}"
                )
            if not spec.supports_mode("async"):
                from repro.algorithms.registry import async_algorithms

                raise EngineError(
                    f"algorithm {self.algorithm!r} has no async driver; "
                    f"mode='async' supports {async_algorithms()}"
                )
        if self.async_bucket_width is not None:
            if self.mode != "async":
                raise EngineError(
                    "async_bucket_width only applies to mode='async' "
                    f"runs, but mode is {self.mode!r}"
                )
            if not self.async_bucket_width > 0:
                raise EngineError(
                    f"async_bucket_width must be > 0, "
                    f"got {self.async_bucket_width}"
                )
        if self.machines < 1:
            raise EngineError(
                f"machines must be >= 1, got {self.machines}"
            )
        if self.options is not None and self.engine != "symple":
            raise EngineError(
                "options= is a SympleGraph knob; the "
                f"{self.engine!r} engine does not accept it"
            )
        if not isinstance(self.executor, Executor) and (
            self.executor not in EXECUTOR_KINDS
        ):
            raise EngineError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{EXECUTOR_KINDS} or an Executor instance"
            )
        if self.workers is not None and self.workers < 1:
            raise EngineError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.verify not in _VERIFY_MODES:
            raise EngineError(
                f"unknown verify mode {self.verify!r}; "
                f"expected one of {_VERIFY_MODES}"
            )
        if self.sources is not None:
            if not spec.sourced:
                raise EngineError(
                    f"sources= selects explicit roots for "
                    f"{SOURCED_ALGORITHMS}; the {self.algorithm!r} "
                    "algorithm does not take them"
                )
            try:
                normalized = tuple(self.sources)
            except TypeError:
                normalized = (None,)  # not a sequence: refused below
            if not all(map(is_integer, normalized)):
                raise EngineError(
                    f"sources must be a sequence of integer vertex ids, "
                    f"got {self.sources!r}"
                )
            normalized = tuple(map(int, normalized))
            if not normalized:
                raise EngineError("sources must name at least one vertex")
            if any(s < 0 for s in normalized):
                raise EngineError(
                    f"sources must be non-negative vertex ids, "
                    f"got {normalized}"
                )
            object.__setattr__(self, "sources", normalized)
        if self.faulted and self.algorithm == "scc":
            raise UnsupportedAlgorithmError(
                "scc runs its backward sweeps on a private transpose "
                "engine that a fault plan or checkpoint store attached "
                "to the session engine cannot reach; drop "
                "faults/checkpointing"
            )

    @property
    def faulted(self) -> bool:
        """Whether this run goes through the recoverable driver."""
        return (
            self.faults is not None and not self.faults.empty
        ) or self.checkpointing.interval > 0

    def replace(self, **overrides: Any) -> "RunConfig":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form of the *configuration* fields.

        ``obs`` and ``cost_model`` are live attachments and are not
        serialized; an executor instance serializes as its kind.
        """
        executor = self.executor
        if isinstance(executor, Executor):
            executor = executor.kind
        return {
            "engine": self.engine,
            "algorithm": self.algorithm,
            "machines": self.machines,
            "seed": self.seed,
            "options": (
                None
                if self.options is None
                else dataclasses.asdict(self.options)
            ),
            "faults": (
                None if self.faults is None else self.faults.to_dict()
            ),
            "checkpointing": {
                "interval": self.checkpointing.interval,
                "retention": self.checkpointing.retention,
            },
            "executor": executor,
            "workers": self.workers,
            "verify": self.verify,
            "bfs_roots": self.bfs_roots,
            "kcore_k": self.kcore_k,
            "kmeans_rounds": self.kmeans_rounds,
            "sources": None if self.sources is None else list(self.sources),
            "mode": self.mode,
            "async_bucket_width": self.async_bucket_width,
        }

    def digest(self) -> str:
        """Canonical sha256 over the configuration fields.

        Two configs digest identically iff :meth:`to_dict` agrees —
        the key the serving layer dedups identical requests by and
        groups batchable requests under (after stripping ``sources``).
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunConfig":
        payload = dict(payload)
        options = payload.get("options")
        if options is not None:
            payload["options"] = SympleOptions(**options)
        faults = payload.get("faults")
        if faults is not None:
            payload["faults"] = FaultPlan.from_dict(faults)
        ckpt = payload.get("checkpointing")
        if ckpt is not None:
            payload["checkpointing"] = Checkpointing(**ckpt)
        return cls(**payload)


def _close_executors(executors: Dict[Any, Executor]) -> None:
    """Finalizer body shared by :meth:`Session.close` and GC/atexit.

    Module-level (not a bound method) so the ``weakref.finalize``
    registration holds no reference back to the session itself.
    """
    for ex in list(executors.values()):
        try:
            ex.close()
        except Exception:  # pragma: no cover - best-effort shutdown
            pass
    executors.clear()


class Session:
    """Executes :class:`RunConfig` runs against one bound graph.

    Partitions (per strategy, machine count, *and graph version*) and
    executors (per backend and worker count) are built once and reused
    across runs — the process backend in particular publishes the CSR
    topology to shared memory only when the partition it is bound to
    changes.

    The bound graph may mutate: :meth:`mutate` applies a
    :class:`~repro.graph.dynamic.MutationBatch`, bumps the session's
    ``graph_version``, incrementally refreshes every cached partition
    (dropping the ones whose strategy cannot refresh), and swaps in the
    new snapshot — so the next run on a process executor republishes
    the shared-memory topology under a fresh generation instead of
    serving the stale one.
    """

    def __init__(self, graph: Union[CSRGraph, DynamicGraph],
                 config: Optional[RunConfig] = None) -> None:
        self._dynamic = (
            graph if isinstance(graph, DynamicGraph) else DynamicGraph(graph)
        )
        self.config = config if config is not None else RunConfig()
        self._partitions: Dict[Tuple[str, int, int], Partition] = {}
        self._executors: Dict[Tuple[str, Optional[int]], Executor] = {}
        self._verified: Set[Tuple[str, str]] = set()
        self._closed = False
        # guards the cache dicts against concurrent `run` calls; actual
        # execution serializes per executor instance via _run_locks so
        # two threads never interleave work on one executor's context
        self._cache_lock = threading.Lock()
        self._run_locks: Dict[int, threading.RLock] = {}
        # interrupted runs must not leak process pools or
        # multiprocessing.shared_memory segments: the finalizer closes
        # session-owned executors at GC or interpreter exit, and
        # close() routes through it so both paths are idempotent
        self._finalizer = weakref.finalize(
            self, _close_executors, self._executors
        )

    @property
    def graph(self) -> CSRGraph:
        """The bound graph's current snapshot."""
        return self._dynamic.snapshot()

    @property
    def graph_version(self) -> int:
        """How many mutation batches the bound graph has applied."""
        return self._dynamic.version

    # -- cached artifacts -------------------------------------------------

    def _partition(self, config: RunConfig, graph: CSRGraph,
                   version: int) -> Optional[Partition]:
        strategy = partition_strategy(config.engine)
        if strategy is None:
            return None
        name, cut = strategy
        key = (name, config.machines, version)
        part = self._partitions.get(key)
        if part is None:
            with self._cache_lock:
                part = self._partitions.get(key)
                if part is None:
                    part = cut.partition(graph, config.machines)
                    self._partitions[key] = part
        return part

    def _graph_snapshot(self) -> Tuple[CSRGraph, int]:
        """Consistent (graph, version) pair under the cache lock."""
        with self._cache_lock:
            return self.graph, self.graph_version

    def _executor(self, config: RunConfig) -> Executor:
        if isinstance(config.executor, Executor):
            # caller-owned: used as-is, never closed by the session
            return make_executor(config.executor, workers=config.workers)
        key = (config.executor, config.workers)
        ex = self._executors.get(key)
        if ex is None:
            with self._cache_lock:
                ex = self._executors.get(key)
                if ex is None:
                    ex = make_executor(
                        config.executor, workers=config.workers
                    )
                    self._executors[key] = ex
        return ex

    def _run_lock(self, executor: Executor) -> threading.RLock:
        key = id(executor)
        lock = self._run_locks.get(key)
        if lock is None:
            with self._cache_lock:
                lock = self._run_locks.get(key)
                if lock is None:
                    lock = threading.RLock()
                    self._run_locks[key] = lock
        return lock

    def _preflight(self, config: RunConfig) -> None:
        """Statically verify the run's signal UDFs before executing.

        ``verify="warn"`` downgrades problems to a ``RuntimeWarning``;
        ``verify="strict"`` additionally promotes the strict lint
        severities and refuses the run with
        :class:`~repro.errors.VerificationError`.  Verdicts are purely
        static and cached per (algorithm, mode) for the session's
        lifetime — repeated runs pay for the analysis once.
        """
        if config.verify == "off":
            return
        key = (config.algorithm, config.verify)
        if key in self._verified:
            return
        # imported lazily: the analysis stack is a tooling dependency,
        # not something every execution-only session should pay for
        from repro.algorithms import SIGNAL_UDFS
        from repro.analysis.verify import verify_signal

        strict = config.verify == "strict"
        problems: List[str] = []
        for fn in SIGNAL_UDFS.get(config.algorithm, ()):
            verdict = verify_signal(fn, strict=strict)
            for msg in verdict.messages:
                if msg.level == "error" or (
                    strict and msg.level == "warning"
                ):
                    problems.append(f"{msg.code}: {msg.message}")
        if problems:
            detail = "; ".join(problems)
            if strict:
                raise VerificationError(
                    f"verify='strict' refused to run "
                    f"{config.algorithm!r}: {detail}"
                )
            warnings.warn(
                f"verify='warn': {config.algorithm!r}: {detail}",
                RuntimeWarning,
                stacklevel=4,
            )
        self._verified.add(key)

    # -- execution --------------------------------------------------------

    def run(self, config: Optional[RunConfig] = None,
            **overrides: Any):
        """Execute one run; returns a
        :class:`~repro.bench.harness.RunResult`.

        ``config`` defaults to the session's config; keyword overrides
        are applied on top with :func:`dataclasses.replace`.
        """
        # imported lazily so the bench package is an execution-time
        # dependency only, not an import-time one
        from repro.bench.harness import _run_session_config

        config = self._resolve(config, overrides)
        self._preflight(config)
        with self.engine_context(config) as (engine, graph, _):
            return _run_session_config(engine, graph, config)

    def run_many(self, configs: Iterable[RunConfig]) -> List[Any]:
        """Execute several configs against the same cached artifacts."""
        return [self.run(config) for config in configs]

    def executor_stats(self) -> Dict[str, Dict[str, Any]]:
        """Stats snapshot of every session-cached executor.

        Keys are ``"kind:workers"``; the process backend reports its
        warm-pool numbers (spawns, topology generation, arena bytes) —
        this is what ``repro.serve`` surfaces under ``/stats``.
        """
        with self._cache_lock:
            items = list(self._executors.items())
        return {
            f"{kind}:{workers if workers else 0}": ex.stats()
            for (kind, workers), ex in items
        }

    def _resolve(self, config: Optional[RunConfig],
                 overrides: Dict[str, Any]) -> RunConfig:
        """``config`` (default: the session's) with ``overrides``."""
        if self._closed:
            raise EngineError("session is closed")
        config = config if config is not None else self.config
        return config.replace(**overrides) if overrides else config

    @contextmanager
    def engine_context(self, config: Optional[RunConfig] = None,
                       **overrides: Any):
        """Yield ``(engine, graph, version)`` for hand-driven phases.

        The engine is built over the session's cached partition and
        executor for ``config`` (defaulting to the session config), and
        the executor's run lock is held for the duration — the entry
        point the incremental algorithms drive their pull phases
        through.  The yielded graph/version pair is the consistent
        snapshot the engine was built from, even if :meth:`mutate` runs
        concurrently.
        """
        config = self._resolve(config, overrides)
        # one consistent (graph, version) snapshot: a concurrent mutate
        # cannot hand this run a partition of one topology and the
        # global graph of another
        graph, version = self._graph_snapshot()
        target = self._partition(config, graph, version)
        executor = self._executor(config)
        # executors carry per-bind context (worker pools, shm views, the
        # current state pointer), so concurrent runs sharing one must
        # not interleave: callers on other threads wait their turn here
        # while runs on *different* executors proceed in parallel
        with self._run_lock(executor):
            engine = make_engine(
                config.engine,
                graph if target is None else target,
                config.machines,
                options=config.options,
                obs=config.obs,
                executor=executor,
                verify=config.verify,
            )
            yield engine, graph, version

    # -- mutation ---------------------------------------------------------

    def mutate(self, batch: MutationBatch, obs: Any = None) -> MutationStats:
        """Apply one mutation batch to the session's graph.

        Applies the batch to the session's :class:`DynamicGraph`
        (atomic: a failed batch changes nothing), incrementally
        refreshes every cached partition of the current version (other
        strategies are dropped and rebuilt on demand), and bumps
        ``graph_version`` — which re-keys the partition cache, so the
        next run binds a fresh partition object and the process
        executor republishes its shared-memory topology under a new
        generation instead of serving the stale one.

        ``obs`` (an :class:`~repro.obs.hooks.ObsHub`, tracer, or trace
        path) receives ``mutation_apply`` / ``partition_refresh``
        events.
        """
        if self._closed:
            raise EngineError("session is closed")
        hub = None if obs is None else ObsHub.coerce(obs)
        with self._cache_lock:
            dyn = self._dynamic
            old_version = dyn.version
            stats = dyn.apply(batch)
            new_graph = dyn.snapshot()
            refreshed: Dict[Tuple[str, int, int], Partition] = {}
            refresh_log = []
            for (strategy, machines, version), part in \
                    self._partitions.items():
                if version != old_version:
                    continue  # superseded topology: let it rebuild
                try:
                    new_part, rstats = refresh_partition(
                        part, new_graph, batch
                    )
                except PartitionError:
                    continue  # strategy without incremental refresh
                refreshed[(strategy, machines, dyn.version)] = new_part
                refresh_log.append((strategy, machines, rstats))
            self._partitions = refreshed
        if hub is not None:
            hub.mutation_apply(
                graph_version=stats.version,
                inserts=stats.inserts,
                deletes=stats.deletes,
                add_vertices=stats.add_vertices,
                num_edges=stats.num_edges,
            )
            for strategy, machines, rstats in refresh_log:
                hub.partition_refresh(
                    strategy=strategy,
                    machines=machines,
                    graph_version=stats.version,
                    touched_machines=len(rstats.touched_machines),
                    reused_machines=rstats.reused_machines,
                    schedule_cells=rstats.schedule_cells,
                    total_cells=rstats.total_cells,
                )
        return stats

    def mutations_since(self, version: int):
        """``(version, batch)`` pairs applied after ``version``.

        None when ``version`` is ahead of the session's graph (an
        incremental handle must then recompute from scratch).
        """
        with self._cache_lock:
            return self._dynamic.batches_since(version)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release session-owned executors (shared memory, pools).

        Idempotent: safe to call repeatedly, from ``__exit__``, and the
        same cleanup runs via ``weakref.finalize`` if the session is
        garbage-collected or the interpreter exits mid-run.
        """
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

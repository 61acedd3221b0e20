"""The supported entry point: :class:`RunConfig` + :class:`Session`.

A :class:`RunConfig` is a frozen, serializable description of one
experiment — engine, algorithm, cluster size, seed, engine options,
fault plan, checkpoint interval, observability sink, and executor
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
import os
import threading
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.algorithms.registry import (
    MODES,
    algorithm_names,
    async_algorithms,
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
from repro.engine.symple import OPTION_FIELDS
from repro.errors import (
    EngineError,
    PartitionError,
    UnsupportedAlgorithmError,
    VerificationError,
)
from repro.exec import EXECUTOR_KINDS, Executor, make_executor
from repro.fault import FaultPlan
from repro.fields import Field, Rule, check_fields
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, MutationBatch, MutationStats
from repro.obs.hooks import ObsHub
from repro.partition import Partition
from repro.partition.delta import refresh_partition

__all__ = ["FIELDS", "RunConfig", "Session"]


#: The config field table: one row per :class:`RunConfig` field, in
#: field order; a nested block's row carries that block's rows.
FIELDS: Dict[str, Field] = {
    "engine": Field(choices=ENGINE_KINDS),
    "algorithm": Field(choices=algorithm_names),
    # twice the largest count any benchmark or test uses: run time and
    # partition memory grow with it
    "machines": Field(int, low=1, served_max=64),
    "seed": Field(int, low=0),
    "options": Field(SympleOptions, optional=True, fields=OPTION_FIELDS,
                     rules=(Rule(
                         lambda c: c.options is None or c.engine == "symple",
                         lambda c: "options= is a SympleGraph knob; the "
                         f"{c.engine!r} engine does not accept it"),)),
    "faults": Field(FaultPlan, optional=True, rules=(Rule(
        lambda c: not (c.faulted and c.algorithm == "scc"),
        lambda c: "scc runs its backward sweeps on a private transpose "
        "engine a fault plan or checkpoint store cannot reach; drop "
        "faults/checkpoint_interval", UnsupportedAlgorithmError),)),
    "checkpoint_interval": Field(int, low=0),
    "obs": Field(live=True),
    "executor": Field(choices=EXECUTOR_KINDS),
    # a query never makes the server fork past its cores
    "workers": Field(int, low=1, optional=True,
                     served_max=os.cpu_count() or 1),
    "verify": Field(choices=("off", "warn", "strict")),
    "bfs_roots": Field(int, low=1),
    "kcore_k": Field(int, low=1),
    "kmeans_rounds": Field(int, low=1),
    "sources": Field(tuple, optional=True, rules=(Rule(
        lambda c: c.sources is None or get_spec(c.algorithm).sourced,
        lambda c: f"sources= selects roots for {sourced_algorithms()}; "
        f"the {c.algorithm!r} algorithm does not take them"),)),
    "mode": Field(choices=MODES, rules=(
        Rule(lambda c: c.mode != "async" or c.engine in ASYNC_ENGINES,
             lambda c: "mode='async' needs per-bucket activation, which the "
             f"{c.engine!r} engine lacks; use one of {ASYNC_ENGINES}"),
        Rule(lambda c: c.mode != "async"
             or get_spec(c.algorithm).supports_mode("async"),
             lambda c: f"algorithm {c.algorithm!r} has no async driver; "
             f"mode='async' supports {async_algorithms()}"),
    )),
}


def _plain(value: Any) -> Any:
    """One field value in its JSON form."""
    if isinstance(value, FaultPlan):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return list(value) if isinstance(value, tuple) else value


@dataclass(frozen=True)
class RunConfig:
    """Frozen description of one experiment run.

    Everything the retired legacy keyword pile expressed, as one
    value that can be stored, compared, replaced field-wise
    (:func:`dataclasses.replace`), and round-tripped through
    :meth:`to_dict`/:meth:`from_dict` (minus the live ``obs``, an
    attachment rather than configuration).  Every field is checked
    against its :data:`FIELDS` row when the config is built.
    """

    engine: str = "symple"
    algorithm: str = "bfs"
    machines: int = 16
    seed: int = 0
    options: Optional[SympleOptions] = None
    faults: Optional[FaultPlan] = None
    checkpoint_interval: int = 0
    obs: Any = None
    executor: str = "serial"
    workers: Optional[int] = None
    verify: str = "off"
    bfs_roots: int = 3
    kcore_k: int = 8
    kmeans_rounds: int = 2
    sources: Optional[Tuple[int, ...]] = None
    mode: str = "sync"

    def __post_init__(self) -> None:
        check_fields(self, FIELDS)

    @property
    def faulted(self) -> bool:
        """Whether this run goes through the recoverable driver."""
        return (
            self.faults is not None and not self.faults.empty
        ) or self.checkpoint_interval > 0

    def replace(self, **overrides: Any) -> "RunConfig":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form of the *configuration* fields.

        ``obs`` is a live attachment and is not serialized.
        """
        return {
            f.name: _plain(getattr(self, f.name))
            for f in dataclasses.fields(self)
            if not FIELDS[f.name].live
        }

    def digest(self) -> str:
        """Canonical sha256 over the configuration fields.

        Two configs digest identically iff :meth:`to_dict` agrees —
        the key the serving layer dedups identical requests by.
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunConfig":
        """Inverse of :meth:`to_dict`: a nested block given as a dict
        is built by its row's type (a fault plan by its own parser)."""
        payload = dict(payload)
        for name, value in payload.items():
            block = FIELDS[name].type if name in FIELDS else None
            if isinstance(value, dict) and dataclasses.is_dataclass(block):
                parse = getattr(block, "from_dict", None)
                payload[name] = parse(value) if parse else block(**value)
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
    changes.  A session holds one process pool at most: a run naming
    another worker count replaces it.

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
        self._run_locks: Dict[Any, threading.RLock] = {}
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
        """``config``'s executor; called under its run lock, which every
        process run shares, so a process pool of another worker count —
        the session keeps one at most — is closed while nothing uses it."""
        key = (config.executor, config.workers)
        with self._cache_lock:
            if key not in self._executors:
                if key[0] == "process":
                    for old in [k for k in self._executors if k[0] == key[0]]:
                        self._executors.pop(old).close()
                self._executors[key] = make_executor(
                    config.executor, workers=config.workers
                )
            return self._executors[key]

    def _run_lock(self, config: RunConfig) -> threading.RLock:
        # one lock for every process executor
        key = config.executor if config.executor == "process" else (
            config.executor, config.workers
        )
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

    def run(self, config: Optional[RunConfig] = None, *,
            deadline: Optional[float] = None, **overrides: Any):
        """Execute one run; returns a
        :class:`~repro.bench.harness.RunResult`.

        ``config`` defaults to the session's config; keyword overrides
        are applied on top with :func:`dataclasses.replace`.  A
        ``deadline`` (a :func:`time.perf_counter` reading) stops the
        run at the first phase or circulant step that starts after it,
        with :class:`~repro.errors.DeadlineExceeded`; it is not part of
        the config, so it never changes a digest.
        """
        # imported lazily so the bench package is an execution-time
        # dependency only, not an import-time one
        from repro.bench.harness import _run_session_config

        config = self._resolve(config, overrides)
        self._preflight(config)
        with self.engine_context(config) as (engine, graph, _):
            engine.deadline = deadline
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
        # executors carry per-bind context (worker pools, shm views, the
        # current state pointer), so concurrent runs sharing one must
        # not interleave: callers on other threads wait their turn here
        # while runs on *different* executors proceed in parallel
        with self._run_lock(config):
            executor = self._executor(config)
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
            hub.emit(
                "mutation_apply",
                graph_version=int(stats.version),
                inserts=int(stats.inserts),
                deletes=int(stats.deletes),
                add_vertices=int(stats.add_vertices),
                num_edges=int(stats.num_edges),
            )
            for strategy, machines, rstats in refresh_log:
                hub.emit(
                    "partition_refresh",
                    strategy=strategy,
                    machines=int(machines),
                    graph_version=int(stats.version),
                    touched_machines=len(rstats.touched_machines),
                    reused_machines=int(rstats.reused_machines),
                    schedule_cells=int(rstats.schedule_cells),
                    total_cells=int(rstats.total_cells),
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

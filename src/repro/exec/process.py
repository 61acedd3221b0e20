"""Process-pool executor backend: persistent workers over a shm arena.

Forked worker processes execute the per-machine task functions.  The
pool is spawned lazily on the first map and then **kept warm** for the
executor's whole life — across ``Session.run`` calls, across engines,
and across graph rebinds:

* **Topology generations.**  The immutable CSR topology (per-machine
  ``indptr``/``indices``/``weights`` plus the master map) is published
  to POSIX shared memory once per bind under a generation tag.  Every
  chunk message carries the current generation and (tiny) manifest;
  a worker that sees a new generation re-attaches the new segments and
  rebuilds its dataset context in place — **no respawn**.
* **State adoption.**  On first contact with a
  :class:`~repro.engine.state.StateStore`, its vertex arrays are
  copied into dedicated segments *once* and the store's fields are
  replaced with parent-side views over the same pages.  Slot writes in
  the parent land directly in shared memory, so warm maps publish no
  state bytes at all; workers cache their attached ``StateStore`` per
  (generation, spec-version) and only scalars travel per map.
* **Delta arena.**  Per-map payload arrays — frontier index sets,
  candidate slices, dependency-bitmap and carried-data slices — go
  through a double-buffered bump-allocated :class:`DeltaArena`
  (preallocated, grown geometrically) instead of one segment per key.
* **Chunked dispatch.**  The per-machine work units of one map call
  are split into at most ``workers`` contiguous chunks — one IPC
  round-trip per worker per superstep instead of one per machine —
  and the flattened results come back in item order, so the parent's
  deterministic ascending-machine merge is unchanged.  A worker runs
  its chunk through the same loop as the serial backend
  (:meth:`~repro.exec.work.WorkerContext.run`), so a task's chunk form
  scans a worker's contiguous machines in blocks; each worker keeps its
  own scan plans, and what its scans counted comes back with the chunk.

Compiled artifacts never cross the process boundary: the parent strips
an :class:`AnalyzedSignal` down to its original function (which pickles
by reference) and workers re-derive the instrumented form and kernel
spec locally, cached per function.  Anything that genuinely cannot be
pickled — closure UDFs, exotic state objects — degrades gracefully:
the map runs inline on the parent and the engine reports an
``exec_fallback`` event with the reason.

A worker crash mid-map breaks the whole pool; the executor respawns it
(visible as an ``exec_pool_spawn`` event with a bumped ``spawns``
count) and retries the map's chunks once — tasks are pure, so a retry
is safe.  A second consecutive crash raises
:class:`~repro.errors.EngineError`.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import weakref
from concurrent import futures
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.instrument import AnalyzedSignal
from repro.errors import EngineError
from repro.exec.base import Executor
from repro.exec.shm import DeltaArena, ShmArena, ship, unship

__all__ = ["ProcessPoolExecutor"]

_CLEANUP: "weakref.WeakSet[Any]" = weakref.WeakSet()


@atexit.register
def _close_leaked() -> None:  # pragma: no cover - exit path
    for arena in list(_CLEANUP):
        arena.close()


# -- worker side -----------------------------------------------------------

# per-worker caches: dataset context per topology generation, state
# store per (generation, spec version) — both survive across maps
_WORKER: Dict[str, Any] = {
    "gen": -1,
    "ctx": None,
    "state_key": None,
    "state": None,
}


def _worker_context(gen: int, manifest) -> Any:
    ws = _WORKER
    if ws["gen"] != gen:
        from repro.exec.work import WorkerContext
        from repro.partition.base import LocalAdjacency

        data = unship(manifest)
        local_in = [
            LocalAdjacency(d["indptr"], d["indices"], d["weights"])
            for d in data["local_in"]
        ]
        local_out = [
            LocalAdjacency(d["indptr"], d["indices"], d["weights"])
            for d in data["local_out"]
        ]
        ws["ctx"] = WorkerContext(
            local_in, local_out, data["master_of"], data["num_vertices"]
        )
        ws["gen"] = gen
        ws["state_key"] = None
        ws["state"] = None
    return ws["ctx"]


def _worker_state(gen: int, state_spec):
    """(Re)build the worker's StateStore only when the spec changed.

    Adopted arrays are live views of the parent's pages, so a cached
    store is always current; only scalars are rebound per chunk.
    """
    from repro.engine.state import StateStore

    arrays, scalars, num_vertices, version = state_spec
    ws = _WORKER
    key = (gen, version)
    if ws["state_key"] != key:
        state = StateStore(num_vertices)
        for name, ref in arrays.items():
            state.set(name, unship(ref))
        ws["state"] = state
        ws["state_key"] = key
    state = ws["state"]
    for name, value in scalars.items():
        state.set(name, value)
    return state


def _run_chunk(payload: bytes) -> Tuple[List[Any], Dict[str, int], int, int]:
    """Execute one contiguous chunk of a map call's items.

    Returns the results with what the chunk's scans counted, and this
    worker's pid with the bytes its kept plans now hold.
    """
    gen, manifest, fn, shared, items, state_spec, stalls = pickle.loads(
        payload
    )
    ctx = _worker_context(gen, manifest)
    ctx.state = _worker_state(gen, state_spec)
    out = ctx.run(fn, unship(shared), unship(items), stalls)
    return out, ctx.plans.take(), os.getpid(), ctx.plans.nbytes


# -- parent side -----------------------------------------------------------


class _StateRecord:
    """Adoption bookkeeping for one StateStore."""

    __slots__ = ("views", "refs", "keymap", "keys", "version")

    def __init__(self) -> None:
        self.views: Dict[str, np.ndarray] = {}
        self.refs: Dict[str, tuple] = {}
        self.keymap: Dict[str, str] = {}
        # shared with the state's weakref finalizer, which retires
        # whatever keys are live when the store is garbage-collected
        self.keys: List[str] = []
        self.version = 0


class ProcessPoolExecutor(Executor):
    """Run tasks on persistent forked workers over shared-memory views."""

    kind = "process"
    parallel = True

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(workers or os.cpu_count() or 1)
        self._pool: Optional[futures.ProcessPoolExecutor] = None
        self._arena = ShmArena()
        self._delta = DeltaArena(
            on_grow=lambda cap: self.events.append(
                ("arena_grow", {"arena": "delta", "bytes": int(cap)})
            )
        )
        _CLEANUP.add(self._arena)
        _CLEANUP.add(self._delta)
        self._generation = 0
        self._manifest = None
        self._topo_keys: List[str] = []
        self._states: "weakref.WeakKeyDictionary[Any, _StateRecord]" = (
            weakref.WeakKeyDictionary()
        )
        self._state_seq = 0
        self._spec_seq = 0
        self.spawns = 0
        # pid -> bytes its kept scan plans held when it last reported
        self._worker_plan_bytes: Dict[int, int] = {}

    # -- dataset publication ----------------------------------------------

    def _rebind(self) -> None:
        """Publish the newly bound partition under a fresh generation.

        The warm pool is untouched: workers notice the bumped
        generation on their next chunk and re-attach in place.
        """
        partition = self._partition
        p = partition.num_machines
        self._generation += 1
        g = self._generation
        new_keys: List[str] = []

        def put(key: str, array) -> tuple:
            key = f"t{g}.{key}"
            new_keys.append(key)
            return self._arena.publish(key, array)

        def adjacency(local, key):
            return {
                "indptr": put(f"{key}.indptr", local.indptr),
                "indices": put(f"{key}.indices", local.indices),
                "weights": (
                    None
                    if local.weights is None
                    else put(f"{key}.weights", local.weights)
                ),
            }

        self._manifest = {
            "local_in": [
                adjacency(partition.local_in(m), f"in{m}") for m in range(p)
            ],
            "local_out": [
                adjacency(partition.local_out(m), f"out{m}") for m in range(p)
            ],
            "master_of": put("master_of", partition.master_of),
            "num_vertices": int(partition.graph.num_vertices),
        }
        self._arena.retire_many(self._topo_keys)
        self._topo_keys = new_keys
        # a worker drops its plans with its context, on its next chunk
        self._worker_plan_bytes.clear()

    def _ensure_pool(self) -> futures.ProcessPoolExecutor:
        if self._pool is None:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                ctx = multiprocessing.get_context("spawn")
            self._pool = futures.ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx
            )
            self.spawns += 1
            self.events.append(
                (
                    "pool_spawn",
                    {
                        "workers": int(self.workers),
                        "generation": int(self._generation),
                        "spawns": int(self.spawns),
                    },
                )
            )
        return self._pool

    def _restart_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._worker_plan_bytes.clear()

    # -- per-call state sync ----------------------------------------------

    def _state_spec(self, state) -> Tuple[dict, dict, int, int]:
        """Adopt the store's arrays into the arena; return the spec.

        Arrays already adopted (field still bound to the arena view)
        cost nothing; new or rebound arrays are copied once and the
        store's field is replaced with the shared view, so every later
        parent write is immediately worker-visible.  The spec version
        only moves when the array layout changed, which is what lets
        workers keep their attached StateStore across maps.
        """
        rec = self._states.get(state)
        if rec is None:
            rec = _StateRecord()
            self._states[state] = rec
            # retire this store's segments when it is garbage-collected
            # (rec.keys is mutated in place as fields come and go)
            weakref.finalize(state, self._arena.retire_many, rec.keys)
        arrays: Dict[str, tuple] = {}
        scalars: Dict[str, Any] = {}
        changed = False
        live = set()
        for name in state:
            value = getattr(state, name)
            if isinstance(value, np.ndarray) and not value.dtype.hasobject:
                live.add(name)
                if rec.views.get(name) is value:
                    arrays[name] = rec.refs[name]
                    continue
                key = f"s{self._state_seq}"
                self._state_seq += 1
                view, ref = self._arena.adopt(key, value)
                state.set(name, view)
                old_key = rec.keymap.get(name)
                if old_key is not None:
                    self._arena.retire(old_key)
                    rec.keys.remove(old_key)
                rec.keys.append(key)
                rec.keymap[name] = key
                rec.views[name] = view
                rec.refs[name] = ref
                arrays[name] = ref
                changed = True
            else:
                scalars[name] = value
        for name in set(rec.views) - live:
            del rec.views[name]
            del rec.refs[name]
            old_key = rec.keymap.pop(name)
            self._arena.retire(old_key)
            rec.keys.remove(old_key)
            changed = True
        if changed:
            self._spec_seq += 1
            rec.version = self._spec_seq
        return arrays, scalars, int(state.num_vertices), rec.version

    @staticmethod
    def _strip(shared: Dict[str, Any]) -> Dict[str, Any]:
        """Signal functions travel by reference, not compiled form."""
        out = dict(shared)
        signal = out.get("signal")
        if isinstance(signal, AnalyzedSignal):
            out["signal"] = signal.original
        return out

    # -- dispatch ----------------------------------------------------------

    def map_machines(self, fn, shared, items, state, stalls=None):
        self.last_fallback = None
        self._context(state)  # raises when never bound
        if not items:
            return []
        state_spec = self._state_spec(state)
        self._delta.begin()
        shipped_shared = ship(self._strip(shared), self._delta)
        shipped_items = [ship(item, self._delta) for item in items]
        stall_list = [
            float(stalls[int(item["m"])]) if stalls is not None else 1.0
            for item in items
        ]
        n = len(items)
        chunks = min(self.workers, n)
        bounds = [
            (n * c // chunks, n * (c + 1) // chunks) for c in range(chunks)
        ]
        try:
            payloads = [
                pickle.dumps(
                    (
                        self._generation,
                        self._manifest,
                        fn,
                        shipped_shared,
                        shipped_items[lo:hi],
                        state_spec,
                        stall_list[lo:hi],
                    ),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                for lo, hi in bounds
            ]
        except Exception as exc:
            # closure UDFs / exotic state objects: run inline instead
            self.last_fallback = f"{type(exc).__name__}: {exc}"
            return self._run_inline(fn, shared, items, state)
        return self._dispatch(payloads)

    def _dispatch(self, payloads: List[bytes]) -> List[Any]:
        """Submit chunk payloads; respawn + retry once after a crash."""
        try:
            return self._gather(payloads)
        except futures.process.BrokenProcessPool:
            self._restart_pool()
            try:
                return self._gather(payloads)
            except futures.process.BrokenProcessPool:
                self._restart_pool()
                raise EngineError(
                    "process executor lost its worker pool twice running "
                    "one map; a task is killing its worker (see the "
                    "exec_pool_spawn trace events for the respawn trail)"
                ) from None

    def _gather(self, payloads: List[bytes]) -> List[Any]:
        pool = self._ensure_pool()
        pending = [pool.submit(_run_chunk, blob) for blob in payloads]
        out: List[Any] = []
        for fut in pending:
            results, counts, pid, plan_bytes = fut.result()
            out.extend(results)
            self._tally(counts)
            self._worker_plan_bytes[pid] = plan_bytes
        return out

    # -- introspection -----------------------------------------------------

    def _plan_bytes(self) -> int:
        # the workers' plans, and the parent's own from inline fallbacks
        return super()._plan_bytes() + sum(self._worker_plan_bytes.values())

    def stats(self) -> Dict[str, Any]:
        """Scan / warm-pool / arena numbers for benchmarks and
        ``/stats``."""
        return {
            **super().stats(),
            "spawns": int(self.spawns),
            "generation": int(self._generation),
            "pool_live": self._pool is not None,
            "publish_bytes": int(
                self._arena.published_bytes + self._delta.written_bytes
            ),
            "state_publish_bytes": int(self._arena.published_bytes),
            "delta_bytes": int(self._delta.written_bytes),
            "delta_capacity": int(self._delta.capacity),
            "delta_grows": int(self._delta.grow_count),
        }

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        # a store that outlives the executor keeps its values: a view
        # built with ndarray(buffer=...) holds no buffer export, so
        # nothing else would stop the unmap below from pulling the
        # pages out from under the store's fields
        for state, rec in list(self._states.items()):
            for name, view in rec.views.items():
                if name in state and getattr(state, name) is view:
                    state.set(name, view.copy())
        self._states.clear()
        self._delta.close()
        self._arena.close()

"""Pure per-machine work units shared by every executor backend.

Each task function here computes what one simulated machine does in one
(phase, step) — :func:`pull_task` for every pull schedule,
:func:`push_task` for the sparse push — against a read-only view of the
graph and vertex state, and returns a plain, picklable result.  All
side effects (network sends, counter increments, update buffering,
dependency-store writes, fault draws, obs events) happen in the
*parent*, which merges results in ascending machine order
(``BaseEngine._pull_step``); that fixed order is what keeps counters,
traffic, and results bit-identical across the serial and process
backends.

Task functions receive a :class:`WorkerContext` (graph topology + state
+ an analyzed-signal cache), a ``shared`` dict broadcast to every task
of one map call, and one per-machine ``item`` dict.  They must not
mutate anything reachable from the context: dependency-state writes are
returned as explicit slices for the parent to apply.  The no-mutation
rule is doubly load-bearing under the process backend, where the state
arrays are shared-memory views aliased across every worker — a task
that wrote to them would race its siblings *and* corrupt the parent's
authoritative copy; purity is also what makes the executor's
crash-retry (respawn the pool, rerun the map's chunks) safe.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List

import numpy as np

from repro.analysis.instrument import AnalyzedSignal, instrument_signal
from repro.analysis.pushspec import classify_push
from repro.engine.dep import DepStore
from repro.kernels import get_kernel
from repro.kernels.csr import guarded_emit_scan

__all__ = [
    "WorkerContext",
    "CountingNeighbors",
    "pull_task",
    "push_task",
]


class WorkerContext:
    """Read-only execution context a task function runs against.

    Holds the per-machine local adjacency lists, the master map, and
    the current :class:`~repro.engine.state.StateStore` (rebound before
    every map call).  ``analyzed()`` resolves a signal to its
    instrumented form: in-process backends pass the engine's cached
    :class:`AnalyzedSignal` through untouched; worker processes receive
    the original function (compiled UDFs do not pickle) and re-derive
    the analysis here, cached per function object.
    """

    def __init__(
        self,
        local_in: List[Any],
        local_out: List[Any],
        master_of: np.ndarray,
        num_vertices: int,
    ) -> None:
        self._local_in = local_in
        self._local_out = local_out
        self.master_of = master_of
        self.num_vertices = int(num_vertices)
        self.state = None
        self._analyzed: Dict[Any, AnalyzedSignal] = {}

    def local_in(self, m: int):
        return self._local_in[m]

    def local_out(self, m: int):
        return self._local_out[m]

    def analyzed(self, signal) -> AnalyzedSignal:
        if isinstance(signal, AnalyzedSignal):
            return signal
        cached = self._analyzed.get(signal)
        if cached is None:
            cached = instrument_signal(signal)
            self._analyzed[signal] = cached
        return cached


class CountingNeighbors:
    """Iterable over a neighbor array that counts examined elements.

    The count includes every neighbor the UDF's loop touched, including
    the one that triggered the break — the paper's "edges traversed"
    metric (Table 5).
    """

    __slots__ = ("_array", "count")

    def __init__(self, array: np.ndarray) -> None:
        self._array = array
        self.count = 0

    def __iter__(self):
        for value in self._array:
            self.count += 1
            yield int(value)

    def __len__(self) -> int:
        return int(self._array.size)


_NUMBERS = (bool, int, float, np.bool_, np.integer, np.floating)


def _as_values(values: list):
    """A unit's emitted values as one 1-D numeric array when they are
    numbers of a single type, else the list as it is.

    Updates stay arrays from the unit to the state (the slot scatters
    of :mod:`repro.kernels.slots` take arrays only), and an array
    pickles smaller than a list of scalars.  Tuples, objects, mixed
    types and Python ints no fixed-width dtype holds stay a list, which
    the parent applies with the scalar slot loop.
    """
    if not values or len(set(map(type, values))) != 1:
        return values
    if not isinstance(values[0], _NUMBERS):
        return values
    try:
        array = np.array(values)
    except OverflowError:
        return values
    return array if array.dtype.kind in "biuf" else values


def _kernel_lanes(analyzed, state, local, dep, carried, plain, timed):
    """Each lane as one batched kernel call."""
    spec = analyzed.kernel
    kernel = get_kernel(spec.kind)

    def scan(vertices, carried_in=None):
        t0 = perf_counter() if timed else 0.0
        batch = kernel(spec, state, local, vertices, carried_in=carried_in)
        return batch, perf_counter() - t0 if timed else 0.0

    batch, plain_seconds = scan(plain)
    plain_edges = int(batch.edges.sum())
    emit_v = plain[batch.emit_mask]
    values = batch.values[batch.emit_mask]
    dep_edges, dep_seconds, broke, carried_out = 0, 0.0, None, {}
    if dep is not None:
        name = spec.carried_vars[0] if carried else None
        batch, dep_seconds = scan(dep, carried[name] if carried else None)
        dep_edges = int(batch.edges.sum())
        broke = batch.broke
        if carried:
            carried_out = {
                name: (np.ones(dep.size, dtype=bool), batch.carried)
            }
        dep_v = dep[batch.emit_mask]
        if dep_v.size and emit_v.size:
            emit_v = np.concatenate([dep_v, emit_v])
            values = np.concatenate([batch.values[batch.emit_mask], values])
            order = np.argsort(emit_v)
            emit_v, values = emit_v[order], values[order]
        elif dep_v.size:
            emit_v, values = dep_v, batch.values[batch.emit_mask]
    return {
        "kind": spec.kind,
        "plain_edges": plain_edges,
        "plain_seconds": plain_seconds,
        "dep_edges": dep_edges,
        "dep_seconds": dep_seconds,
        "emit_v": emit_v,
        "emit_counts": None,  # a kernel emits at most once per vertex
        "emit_values": values,
        "broke": broke,
        "carried": carried_out,
    }


def _interp_lanes(analyzed, state, local, dep, carried, plain, is_last):
    """Both lanes on the per-vertex interpreter, in one ascending pass:
    the instrumented UDF with a dependency handle for dependency-lane
    vertices, the original UDF for the rest."""
    n_dep = 0 if dep is None else dep.size
    # Lane-local dependency state, indexed by position in ``dep``: a
    # vertex the parent let through starts from exactly what it was
    # sent — nothing at all when its dependency message was lost.
    store = DepStore(n_dep, carried or (), share_data=carried is not None)
    for name, (present, values) in (carried or {}).items():
        store.present[name][:] = present
        store.data[name][:] = values
    vertices = plain if dep is None else np.concatenate([dep, plain])
    dep_edges = plain_edges = 0
    emit_v: List[int] = []
    emit_counts: List[int] = []
    emit_values: list = []
    for i in np.argsort(vertices, kind="stable").tolist():
        v = int(vertices[i])
        nbrs = CountingNeighbors(local.neighbors(v))
        emitted: list = []
        if i < n_dep:
            analyzed.instrumented(
                v, nbrs, state, emitted.append,
                store.handle(i, is_last=is_last),
            )
            dep_edges += nbrs.count
        else:
            analyzed.original(v, nbrs, state, emitted.append)
            plain_edges += nbrs.count
        if emitted:
            emit_v.append(v)
            emit_counts.append(len(emitted))
            emit_values.extend(emitted)
    return {
        "kind": None,
        "plain_edges": plain_edges,
        "plain_seconds": 0.0,
        "dep_edges": dep_edges,
        "dep_seconds": 0.0,
        "emit_v": np.array(emit_v, dtype=np.int64),
        "emit_counts": (
            None if len(emit_values) == len(emit_v)
            else np.array(emit_counts, dtype=np.int64)
        ),
        "emit_values": _as_values(emit_values),
        "broke": store.skip,
        "carried": {
            name: (store.present[name], store.data[name])
            for name in store.data
        },
    }


def pull_task(
    ctx: WorkerContext, shared: Dict[str, Any], item: Dict[str, Any]
) -> Dict[str, Any]:
    """One machine's share of one pull step — the only pull work unit.

    Two lanes over machine ``item['m']``'s local in-edges:

    * the **dependency lane** ``item['dep']`` (absent on the BSP
      schedule): vertices taking part in dependency propagation, which
      the parent has already cut down to those this machine must scan
      (skip bit clear, or dependency message lost), with
      ``item['carried']`` — ``{name: (present, values)}`` aligned with
      ``dep``, or None when no data circulates — the carried state the
      previous machine handed over;
    * the **plain lane** ``item['plain']``: vertices scanned with the
      original UDF and no dependency state.  When absent it is every
      vertex of ``shared['active']`` with a local in-edge, so the BSP
      schedule ships the active set once, not once per machine.

    ``shared['use_kernel']`` picks the batched kernel or the per-vertex
    interpreter for both lanes; the result has one shape either way:
    per-lane ``*_edges`` (and, for kernels, ``*_seconds``),
    ``plain_vertices``, the emitting vertices in ascending order
    (``emit_v``) with how many values each emitted (``emit_counts``, or
    None for "one each", which is all a kernel can emit) and the values
    flattened in that order (``emit_values``: a 1-D numeric array, or a
    list when the interpreter emitted anything else), and the
    dependency lane's outgoing state for the parent to write back —
    ``broke`` (mask over ``dep``, or None for a kernel that never
    breaks) and ``carried`` (same layout as the input).
    """
    m = int(item["m"])
    analyzed = ctx.analyzed(shared["signal"])
    local = ctx.local_in(m)
    dep = item.get("dep")
    plain = item.get("plain")
    if plain is None:
        active = shared["active"]
        plain = active[local.degrees()[active] > 0]
    if shared["use_kernel"]:
        out = _kernel_lanes(
            analyzed, ctx.state, local, dep, item.get("carried"), plain,
            shared["timed"],
        )
    else:
        out = _interp_lanes(
            analyzed, ctx.state, local, dep, item.get("carried"), plain,
            shared["is_last"],
        )
    out["m"] = m
    out["plain_vertices"] = int(plain.size)
    return out


def _push_scan(ctx: WorkerContext, push_signal, local, cand: np.ndarray):
    """``(edges, emit_v, emit_values)`` of one push unit by the flat
    scan, or None when only the per-edge loop gives the loop's answer.

    The spec is re-derived from the function through
    :func:`classify_push`'s memo (compiled evaluators do not pickle —
    the reason :meth:`WorkerContext.analyzed` exists).  ``emit_values``
    must be the array :func:`_as_values` builds from the loop's scalar
    results, dtype included, and the two can disagree on it: a vertex id
    is a weak Python int in the loop and an int64 array in the scan, so
    ``u + s.i32[v]`` is int32 there and int64 here.  One scalar call on
    the first emitting edge learns the loop's dtype; an integer result
    that survives the round trip (with every id in the narrower type's
    range, as the loop's conversion needs) is cast, and any other
    mismatch — or a result that is no number at all — is a miss.
    """
    spec = classify_push(push_signal)
    if spec is None:
        return None
    edges, emit_u, emit_v, values = guarded_emit_scan(
        spec, ctx.state, local, cand
    )
    if not emit_v.size:
        return edges, emit_v, []
    want = _as_values(
        [push_signal(int(emit_u[0]), int(emit_v[0]), ctx.state)]
    )
    if not isinstance(want, np.ndarray):
        return None
    if want.dtype != values.dtype:
        if not (
            want.dtype.kind in "iu"
            and values.dtype.kind in "iu"
            and ctx.num_vertices - 1 <= np.iinfo(want.dtype).max
        ):
            return None
        exact, values = values, values.astype(want.dtype)
        if not np.array_equal(values.astype(exact.dtype), exact):
            return None
    return edges, emit_v, values


def push_task(
    ctx: WorkerContext, shared: Dict[str, Any], item: Dict[str, Any]
) -> Dict[str, Any]:
    """One machine of the sparse push phase.

    Scans the out-edges of the frontier vertices that have any here, in
    ascending order, and returns ``owners`` — the master of each
    *remote* scanned vertex, in scan order: one frontier-state transfer
    each — with the updates as parallel arrays in emit order:
    ``emit_v`` (destinations) and ``emit_values`` (a numeric array, or
    a list, as in :func:`pull_task`).  The parent derives every send
    from these and the master map.

    ``shared['use_kernel']`` asks for the scan as one array pass
    (:func:`_push_scan`); the per-edge loop below is the fallback and
    the oracle, and both return the same result, key for key and byte
    for byte.
    """
    m = int(item["m"])
    local = ctx.local_out(m)
    degs = local.degrees()
    frontier = shared["frontier"]
    cand = frontier[degs[frontier] > 0]
    owners = ctx.master_of[cand]
    push_signal = shared["signal"]
    scanned = None
    if shared["use_kernel"] and cand.size:
        scanned = _push_scan(ctx, push_signal, local, cand)
    if scanned is None:
        state = ctx.state
        emit_v: List[int] = []
        emit_values: list = []
        edges = 0
        for u in cand.tolist():
            nbrs = local.neighbors(u).tolist()
            edges += len(nbrs)
            for v in nbrs:
                value = push_signal(u, v, state)
                if value is not None:
                    emit_v.append(v)
                    emit_values.append(value)
        scanned = (
            edges, np.array(emit_v, dtype=np.int64), _as_values(emit_values)
        )
    edges, emit_v, emit_values = scanned
    return {
        "m": m,
        "edges": edges,
        "vertices": int(cand.size),
        "owners": owners[owners != m],
        "emit_v": emit_v,
        "emit_values": emit_values,
    }

"""Pure work units shared by every executor backend.

Each task function here computes what the simulated machines do in one
phase: :func:`pull_walk` for a dense pull — the items of the phase's
table (one per machine for the BSP schedule, one per destination
partition for the circulant one) walked step after step — and
:func:`push_task` for one machine of the sparse push.  A task may take
an executor's whole chunk of consecutive items at once, as the walk
does: it scans each step's units of the chunk in blocks (one kernel
call per lane of a block, not of a unit) without any unit's result
depending on it.  All side effects (network sends, counter increments,
update buffering, fault draws, obs events) happen in the *parent*,
which merges results step by step in ascending machine order
(``BaseEngine._merge_step``); that fixed order is what keeps counters,
traffic, and results bit-identical across the serial and process
backends.

Task functions receive a :class:`WorkerContext` (graph topology + state
+ an analyzed-signal cache + the scan plans it keeps between phases), a
``shared`` dict broadcast to every task of one map call, and its items.
They must not mutate anything reachable from the context (its
:class:`PlanStore` aside, which is a cache of what the topology alone
determines); a walk keeps its items' dependency state in a store of
its own.  The no-mutation rule is doubly load-bearing under the process
backend, where the state arrays are shared-memory views aliased across
every worker — a task that wrote to them would race its siblings *and*
corrupt the parent's authoritative copy; purity is also what makes the
executor's crash-retry (respawn the pool, rerun the map's chunks) safe.
"""

from __future__ import annotations

from itertools import accumulate
from time import perf_counter, sleep
from typing import Any, Dict, List

import numpy as np

from repro.analysis.instrument import AnalyzedSignal, instrument_signal
from repro.analysis.pushspec import classify_push
from repro.engine.dep import DepStore
from repro.kernels import get_kernel
from repro.kernels.csr import ScanBlock, empty_batch, guarded_emit_scan

__all__ = [
    "WorkerContext",
    "PlanStore",
    "CountingNeighbors",
    "pull_walk",
    "push_task",
    "unit_lane",
    "write_back",
]


class WorkerContext:
    """Read-only execution context a task function runs against.

    Holds the per-machine local adjacency lists, the master map, and
    the current :class:`~repro.engine.state.StateStore` (rebound before
    every map call).  ``analyzed()`` resolves a signal to its
    instrumented form: in-process backends pass the engine's cached
    :class:`AnalyzedSignal` through untouched; worker processes receive
    the original function (compiled UDFs do not pickle) and re-derive
    the analysis here, cached per function object.  ``plans`` is the
    context's :class:`PlanStore`: the scan plans kept between
    consecutive pull phases of a run, which — like the adjacency lists —
    belong to this partition and go when the context is replaced.
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
        self.plans = PlanStore()
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

    def run(self, fn, shared, items, stalls=None) -> List[Any]:
        """Run task ``fn`` over ``items`` against this context — the
        chunk loop every executor backend shares.

        A task with a chunk form (``fn.chunk(ctx, shared, items)``, as
        :func:`pull_walk` is its own) gets the whole chunk in one call;
        any other is called item by item.
        ``stalls`` — one straggler factor per item — turns into a real
        pause after the chunk: each unit's ``(stall - 1) x`` its edge
        share of the chunk's seconds (an equal share for results that
        count no edges).
        """
        t0 = perf_counter()
        chunk = getattr(fn, "chunk", None)
        if chunk is not None:
            results = chunk(self, shared, items)
        else:
            results = [fn(self, shared, item) for item in items]
        if stalls is not None and any(stall > 1.0 for stall in stalls):
            seconds = perf_counter() - t0
            edges = [_unit_edges(result) for result in results]
            total = sum(edges)
            sleep(sum(
                (stall - 1.0) * seconds
                * (share / total if total else 1.0 / len(edges))
                for stall, share in zip(stalls, edges)
                if stall > 1.0
            ))
        return results


def _unit_edges(result) -> int:
    """Edges a unit's result says it scanned (0 when it does not say);
    a list is a walked item's units."""
    if isinstance(result, list):
        return sum(map(_unit_edges, result))
    if not isinstance(result, dict):
        return 0
    return (
        result.get("edges", 0)
        + result.get("plain_edges", 0)
        + result.get("dep_edges", 0)
    )


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


# The edge budget of one kernel call: consecutive units of a chunk are
# scanned together while their flattened edges stay within it (a unit
# over it is a block alone — exactly the per-unit call).  Bounded in
# both directions, on measurements (``benchmarks/spine/run.py --seconds
# 4 --trace 0``, seeds 21 / 22, 2-vCPU host; ``run_s`` in seconds,
# ``peak_rss_mb`` in MiB where it moved):
#
#   limit       bfs_skew         bfs_gemini               pagerank_dense
#   0           0.1195 / 0.1149  0.0889 / 0.0854          0.2788 / 0.2993
#   65,536      0.0981 / 0.0906  0.0874 / 0.0861          0.2083 / 0.2138
#   262,144     0.0945 / 0.0898  0.0837 / 0.0867          0.2120 / 0.2120
#   unbounded   0.0918 / 0.0876  0.0866 / 0.0881,         0.2045 / 0.2117
#                                rss 230 -> 249 (+8 %)
#
# Below the bound, units of a few hundred edges (896 kernel calls a
# ``bfs_skew`` run, 2,560 a ``pagerank_dense`` run) are bound by fixed
# NumPy call overhead, not arithmetic, and want to be scanned together;
# above it a whole BSP step in one call (``bfs_gemini``: 1 M edges)
# buys nothing — each of its eight units a phase is over any sane limit
# and scans alone at no loss — and its edge-sized temporaries cost the
# 8 % of peak RSS (the first prototype of this scan, with more of them
# per kernel, also read 7-9 % slower: 0.104-0.107 s against
# 0.095-0.100 s).  65,536 and 262,144 read the same on all three, so the
# smaller is kept: a block's temporaries (8 bytes an edge, a handful
# live at once) then stay inside a 2 MiB private cache — GPOP's sizing
# rule — and a multi-unit call stays far below the 2**24 hits that
# ``count_to_k_break``'s running count is exact for under a float32
# init.
_BLOCK_EDGES = 65_536


class PlanStore:
    """The scan plans a context keeps, and its scan counters.

    A :class:`~repro.kernels.csr.ScanBlock` depends on the topology and
    the block's vertex sets only, so a block whose sets recur can be
    scanned with the arrays it flattened last time.  Per block position
    of a phase — ``(step, first machine, lane)`` — the store remembers
    the sets it last saw and, from the second consecutive sighting on,
    the block; a position whose sets differ (compared by exact array
    equality) replaces both.  Reuse is between consecutive pull phases
    of one run only: a new ``(run, phase)`` scope drops whatever the
    phase before the last one left, and a new run drops everything, so
    what one run counts never depends on what ran before it and at most
    one block per position is held (nothing for a set seen once).  The
    topology half of the key is the store's owner: a context belongs to
    one partition and is replaced with it.
    """

    COUNTERS = ("blocks", "units", "plans_built", "plans_reused")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.COUNTERS, 0)
        self._scope = None
        # position -> (layout, vertices, block or None): the pull phase
        # before this one, and this one
        self._last: Dict[Any, tuple] = {}
        self._seen: Dict[Any, tuple] = {}

    def block(self, scan, lane: str, machines, rows, vertices) -> ScanBlock:
        """The block over ``rows`` (one per machine of ``machines``)
        whose concatenated vertex sets are ``vertices``: the kept one
        when this position saw exactly these sets last phase."""
        run, phase, step = scan
        if (run, phase) != self._scope:
            same_run = self._scope is not None and self._scope[0] == run
            self._last = self._seen if same_run else {}
            self._seen = {}
            self._scope = (run, phase)
        key = (step, machines[0], lane)
        layout = (machines, tuple(row[2].size for row in rows))
        counts = self.counts
        counts["blocks"] += 1
        counts["units"] += len(rows)
        # a step replayed inside its phase (certification, recovery)
        # finds what its first pass left
        prev = self._last.pop(key, None) or self._seen.get(key)
        if (
            prev is not None
            and prev[0] == layout
            and np.array_equal(prev[1], vertices)
        ):
            _, vertices, block = prev
            if block is None:
                counts["plans_built"] += 1
                block = ScanBlock(rows)
            else:
                counts["plans_reused"] += 1
            self._seen[key] = (layout, vertices, block)
            return block
        counts["plans_built"] += 1
        # a worker's sets are views of the delta arena, which the map
        # after next overwrites
        kept = vertices if vertices.flags.owndata else vertices.copy()
        self._seen[key] = (layout, kept, None)
        return ScanBlock(rows)

    def take(self) -> Dict[str, int]:
        """The counters since the last take, which it zeroes."""
        counts, self.counts = self.counts, dict.fromkeys(self.COUNTERS, 0)
        return counts

    @property
    def nbytes(self) -> int:
        """Bytes held by kept blocks (a reused one sits in both maps)."""
        # list(): /stats reads this from another thread mid-run
        entries = list(self._last.values()) + list(self._seen.values())
        blocks = {
            id(entry[2]): entry[2] for entry in entries
            if entry[2] is not None
        }
        return sum(block.nbytes for block in blocks.values())


# what a lane with no vertex gets, without a call (read-only, shared)
_NO_ROWS = empty_batch()


def _row(local, vertices):
    """``vertices``' :class:`~repro.kernels.csr.ScanBlock` row in
    ``local``: where each neighbor segment starts, how long it is, and
    the lengths' sum (the edge count the block budget needs)."""
    starts = local.indptr[vertices]
    lens = local.indptr[vertices + 1] - starts
    return local, starts, lens, int(lens.sum())


def _blocks(edges: List[int], restored: list, limit: int):
    """Consecutive units (as ranges of unit indices) grouped while the
    group's edges stay within ``limit`` and its dependency lanes share
    one carried-in class (a kernel picks its fold dtype once per call
    from "is anything restored", so a unit that restores values never
    shares a call with one that does not; None: no row to class)."""
    first, total, cls = 0, 0, None
    for u, (unit_edges, unit_cls) in enumerate(zip(edges, restored)):
        clash = None not in (cls, unit_cls) and cls != unit_cls
        if u > first and (clash or total + unit_edges > limit):
            yield range(first, u)
            first, total, cls = u, 0, None
        total += unit_edges
        if unit_cls is not None:
            cls = unit_cls
    if first < len(edges):
        yield range(first, len(edges))


def _scan_lane(ctx, shared, spec, ms, block, lane, vertices, rows, carried):
    """Lane ``lane`` of a block in one kernel call.

    Per unit of ``block``, ``(edges, emit_v, values, broke, carried,
    seconds)``: the edges its vertices scanned, its emitting vertices
    and their values in lane order, its slices of the batch's ``broke``
    and ``carried`` (aligned with its lane's vertices; None where the
    kernel returns none), and its share of the call's seconds — by
    flattened edges, what a call's time goes with.  Every array is the
    unit's slice of the block's, cut at the unit offsets: what its own
    call returns, dtype and bytes.  A unit with no vertex on the lane
    gets what a kernel returns for no vertices, without a call.
    ``vertices``, ``rows`` and ``carried`` (``(present, values)`` or
    None: nothing restored) are per unit of the step.
    """
    out = [
        (0, vertices[u][:0], _NO_ROWS.values, _NO_ROWS.broke,
         _NO_ROWS.carried, 0.0)
        for u in block
    ]
    live = [u for u in block if vertices[u].size]
    if not live:
        return out
    flat = np.concatenate([vertices[u] for u in live])
    carried_in = None if carried is None else tuple(
        np.concatenate(part) for part in zip(*(carried[u] for u in live))
    )
    scan_block = ctx.plans.block(
        shared["scan"], lane, tuple(ms[u] for u in live),
        [rows[u] for u in live], flat,
    )
    timed = shared["timed"]
    t0 = perf_counter() if timed else 0.0
    batch = get_kernel(spec.kind)(
        spec, ctx.state, scan_block, flat, carried_in=carried_in
    )
    seconds = perf_counter() - t0 if timed else 0.0
    hits = np.flatnonzero(batch.emit_mask)
    emit_v, values = flat[hits], batch.values[hits]
    bounds = [0, *accumulate(vertices[u].size for u in live)]
    edges = np.add.reduceat(batch.edges, bounds[:-1]).tolist()
    cuts = np.searchsorted(hits, bounds).tolist()
    total = scan_block.flat.size
    for k, u in enumerate(live):
        span = slice(bounds[k], bounds[k + 1])
        emits = slice(cuts[k], cuts[k + 1])
        out[u - block.start] = (
            edges[k], emit_v[emits], values[emits],
            None if batch.broke is None else batch.broke[span],
            None if batch.carried is None else batch.carried[span],
            seconds * rows[u][3] / total,
        )
    return out


def _merged_emits(plain: list, dep: list, num_vertices: int) -> list:
    """Per unit of a block, its two lanes' emits in ascending vertex
    order: one sort over ``(unit, vertex)`` for the block, cut per unit.
    Every unit's lane is a slice of that lane's one batch, so each gets
    what sorting its own two lanes gives, dtype included."""
    emits = [
        pl[1:3] if not d[1].size else d[1:3] if not pl[1].size else None
        for pl, d in zip(plain, dep)
    ]
    both = [i for i, pair in enumerate(emits) if pair is None]
    if both:
        lanes = [lane for i in both for lane in (dep[i], plain[i])]
        sizes = [dep[i][1].size + plain[i][1].size for i in both]
        emit_v = np.concatenate([lane[1] for lane in lanes])
        key = emit_v if len(both) == 1 else emit_v + np.repeat(
            np.arange(len(both)) * num_vertices, sizes
        )
        # keys are distinct, and each lane's are ascending already: a
        # stable sort merges those runs rather than sorting from scratch
        order = np.argsort(key, kind="stable")
        emit_v = emit_v[order]
        values = np.concatenate([lane[2] for lane in lanes])[order]
        cuts = list(accumulate(sizes, initial=0))
        for k, i in enumerate(both):
            span = slice(cuts[k], cuts[k + 1])
            emits[i] = (emit_v[span], values[span])
    return emits


def _kernel_step(ctx, shared, spec, ms, deps, carried, plains) -> list:
    """A step's units — on machines ``ms``, ascending — on the batched
    kernel, block by block: one call per lane of a block, one emit
    merge per block.  ``carried`` is each unit's dependency-lane state
    (``{name: (present, values)}``), or None when none circulates."""
    name = None if carried is None else spec.carried_vars[0]
    carried_in = None if carried is None else [c[name] for c in carried]
    rows = {
        lane: [_row(ctx.local_in(m), v) for m, v in zip(ms, vertices)]
        for lane, vertices in (("plain", plains), ("dep", deps))
    }
    edges = [pl[3] + d[3] for pl, d in zip(rows["plain"], rows["dep"])]
    restored = [
        None if not dep.size
        else carried_in is not None and bool(carried_in[u][0].any())
        for u, dep in enumerate(deps)
    ]
    limit = 0 if shared["solo"] else _BLOCK_EDGES
    results = []
    for block in _blocks(edges, restored, limit):
        plain = _scan_lane(ctx, shared, spec, ms, block, "plain", plains,
                           rows["plain"], None)
        dep = _scan_lane(ctx, shared, spec, ms, block, "dep", deps,
                         rows["dep"], carried_in)
        emits = _merged_emits(plain, dep, ctx.num_vertices)
        for u, pl, d, (emit_v, values) in zip(block, plain, dep, emits):
            results.append({
                "kind": spec.kind,
                "plain_edges": pl[0],
                "plain_seconds": pl[5],
                "dep_edges": d[0],
                "dep_seconds": d[5],
                "emit_v": emit_v,
                "emit_counts": None,  # a kernel emits once per vertex
                "emit_values": values,
                "broke": d[3],
                "carried": {} if carried is None else {
                    name: (np.ones(deps[u].size, dtype=bool), d[4])
                },
                "m": ms[u],
                "plain_vertices": int(plains[u].size),
            })
    return results


def _interp_lanes(analyzed, state, local, m, dep, carried, plain, is_last):
    """Both lanes of one unit on the per-vertex interpreter, in one
    ascending pass: the instrumented UDF with a dependency handle for
    dependency-lane vertices, the original UDF for the rest."""
    n_dep = dep.size
    # Lane-local dependency state, indexed by position in ``dep``: a
    # vertex the parent let through starts from exactly what it was
    # sent — nothing at all when its dependency message was lost.
    store = DepStore(n_dep, carried or (), share_data=carried is not None)
    for name, (present, values) in (carried or {}).items():
        store.present[name][:] = present
        store.data[name][:] = values
    vertices = np.concatenate([dep, plain])
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
        "m": m,
        "plain_vertices": int(plain.size),
    }


def unit_lane(table: Dict[str, Any], lane: str, m: int, item: int):
    """The vertices machine ``m`` scans for ``item`` on ``lane``
    (``"dep"`` or ``"plain"``) of a pull phase's table."""
    vertices, cuts = table[lane][m]
    return vertices[cuts[item]:cuts[item + 1]]


def write_back(dep_store, deps: List[np.ndarray], results) -> None:
    """A finished step's break bits and carried data into ``dep_store``,
    one scatter each: a step's partitions are disjoint."""
    live = [(dep, res) for dep, res in zip(deps, results) if dep.size]
    broke = [dep[res["broke"]] for dep, res in live
             if res["broke"] is not None]
    if broke:
        dep_store.skip[np.concatenate(broke)] = True
    for name in dep_store.data:
        units = [
            (dep, *res["carried"][name]) for dep, res in live
            if name in res["carried"]
        ]
        if units:
            at, present, values = map(np.concatenate, zip(*units))
            dep_store.present[name][at] = present
            dep_store.data[name][at] = values


def pull_walk(
    ctx: WorkerContext, shared: Dict[str, Any], items: List[int]
) -> List[List[Dict[str, Any]]]:
    """The pull task: items of a phase's table walked over the steps
    ``shared['steps']`` (``(first, stop)``); per item, one result a
    step.

    ``shared['table']`` is the phase (``BaseEngine._pull_table``): per
    lane, one ``(vertices, cuts)`` per machine — item ``j``'s share of
    machine ``m``'s lane is ``vertices[cuts[j]:cuts[j + 1]]``
    (:func:`unit_lane`) — and ``machine[j][s]``, the machine that scans
    item ``j`` in step ``s``.
    Each step's unit of an item is two lanes over that machine's local
    in-edges:

    * the **dependency lane** — vertices taking part in dependency
      propagation, cut down to those whose skip bit is still clear,
      with the carried state (``shared['carried']`` names it) the
      previous machine handed over;
    * the **plain lane** — vertices scanned with the original UDF and
      no dependency state.

    The dependency state is the walk's — fresh, or a copy of
    ``shared['dep_in']`` ``(skip, present, data)`` — and written back
    between steps.  A step's units run in ascending machine order.
    ``shared['use_kernel']`` picks the batched kernel or the per-vertex
    interpreter for both lanes.  The kernel scans a step in *blocks*:
    consecutive units whose flattened edges fit ``_BLOCK_EDGES`` share
    one kernel call per lane (``shared['solo']`` puts every unit in a
    block of its own — the certifier's replay), with the run and phase
    of ``shared['scan']`` and the step telling the context's
    :class:`PlanStore` where in the run the block sits.  A unit's
    result does not depend on what it was blocked with, and has one
    shape either way: per-lane ``*_edges`` (and, for kernels,
    ``*_seconds`` — the unit's edge share of its block's call),
    ``plain_vertices`` and ``dep_vertices``, the scanning machine
    ``m``, the emitting vertices in ascending order (``emit_v``) with
    how many values each emitted (``emit_counts``, or None for "one
    each", which is all a kernel can emit) and the values flattened in
    that order (``emit_values``: a 1-D numeric array, or a list when
    the interpreter emitted anything else), and — only for a parent
    that passed the state in — the dependency lane's outgoing state,
    ``broke`` (mask over the lane, or None for a kernel that never
    breaks) and ``carried`` (``{name: (present, values)}``).
    """
    table = shared["table"]
    machine = table["machine"]
    last = len(machine[0]) - 1
    store = DepStore(ctx.num_vertices, shared["carried"])
    dep_in = shared["dep_in"]
    if dep_in is not None:
        skip, present, data = dep_in
        store.skip[:] = skip
        for name in store.data:
            store.present[name][:] = present[name]
            store.data[name][:] = data[name]
    analyzed = ctx.analyzed(shared["signal"])
    run, phase = shared["scan"]
    walked: List[List[Dict[str, Any]]] = [[] for _ in items]
    for s in range(*shared["steps"]):
        at = sorted(range(len(items)), key=lambda i: machine[items[i]][s])
        ms = [machine[items[i]][s] for i in at]
        deps = [unit_lane(table, "dep", m, items[i]) for i, m in zip(at, ms)]
        deps = [dep[~store.skip[dep]] for dep in deps]
        plains = [
            unit_lane(table, "plain", m, items[i]) for i, m in zip(at, ms)
        ]
        carried = [
            {name: (store.present[name][dep], values[dep])
             for name, values in store.data.items()}
            for dep in deps
        ] if store.data else None
        if shared["use_kernel"]:
            results = _kernel_step(
                ctx, {**shared, "scan": (run, phase, s)}, analyzed.kernel,
                ms, deps, carried, plains,
            )
        else:
            results = [
                _interp_lanes(
                    analyzed, ctx.state, ctx.local_in(m), m, dep,
                    None if carried is None else carried[u], plain,
                    s == last,
                )
                for u, (m, dep, plain) in enumerate(zip(ms, deps, plains))
            ]
        write_back(store, deps, results)
        for i, dep, res in zip(at, deps, results):
            res["dep_vertices"] = int(dep.size)
            if dep_in is None:
                del res["broke"], res["carried"]
            walked[i].append(res)
    return walked


# the walk takes its executor's whole chunk of items in one call
pull_walk.chunk = pull_walk


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
    a list, as in :func:`pull_walk`).  The parent derives every send
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

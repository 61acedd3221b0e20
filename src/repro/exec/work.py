"""Pure work units shared by every executor backend.

Each task function here computes what the simulated machines do in one
phase: :func:`pull_walk` for a dense pull — the items of the phase's
table (one per machine for the BSP schedule, one per destination
partition for the circulant one) walked step after step — and
:func:`push_task` for one machine of the sparse push.  A task may take
an executor's whole chunk of consecutive items at once, as the walk
does: it scans the plain lanes of the chunk's units over all its steps
once, and each step's dependency lanes, in blocks (one kernel call per
block, not per unit) without any unit's result depending on it.  All
side effects (network sends, counter increments, update buffering,
fault draws, obs events) happen in the *parent*, which merges results
step by step in ascending machine order (``BaseEngine._merge_steps``);
that fixed order is what keeps counters, traffic, and results
bit-identical across the serial and process backends.

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

from itertools import accumulate, groupby
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


# The edge budget of one kernel call: consecutive units of a lane are
# scanned together while their flattened edges stay within it (a unit
# over it is a block alone — exactly the per-unit call).  A plain-lane
# block spans steps — a machine's units over all the steps of a walk —
# so a large phase splits by this budget, not by step.  Bounded in both
# directions (DESIGN.md, "A bound in both directions", has the
# readings): far below it units are bound by fixed NumPy call overhead
# and want company; far above it a whole BSP step in one call gains
# nothing, and its edge-sized temporaries cost 8 % of peak RSS.  65,536
# and 262,144 read the same, so the smaller is kept: a block's
# temporaries then stay inside a 2 MiB private cache (GPOP's sizing
# rule), and a multi-unit call stays far below the 2**24 hits that
# ``count_to_k_break``'s running count is exact for under a float32 init.
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
_NO_VERTICES = np.zeros(0, dtype=np.int64)
_NO_SCAN = (0, _NO_VERTICES, _NO_ROWS.values, _NO_ROWS.broke,
            _NO_ROWS.carried, 0.0)


def _blocks(edges: List[int], restored: List[bool], limit: int):
    """Consecutive units (as ranges of unit indices) grouped while the
    group's edges stay within ``limit`` and its units share one
    carried-in class (a kernel picks its fold dtype once per call from
    "is anything restored", so a unit that restores values never shares
    a call with one that does not)."""
    first, total = 0, 0
    for u, unit_edges in enumerate(edges):
        if u > first and (restored[u] != restored[first]
                          or total + unit_edges > limit):
            yield range(first, u)
            first, total = u, 0
        total += unit_edges
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
    call returns, dtype and bytes.  ``ms``, ``vertices`` (none empty),
    ``rows`` and ``carried`` (``(present, values)`` or None: nothing
    restored) are per unit of the walk's lane; ``shared['scan']`` is
    the block's position, the step of its first unit included.
    """
    flat = np.concatenate([vertices[u] for u in block])
    carried_in = None if carried is None else tuple(
        np.concatenate(part) for part in zip(*(carried[u] for u in block))
    )
    scan_block = ctx.plans.block(
        shared["scan"], lane, tuple(ms[u] for u in block),
        [rows[u] for u in block], flat,
    )
    timed = shared["timed"]
    t0 = perf_counter() if timed else 0.0
    batch = get_kernel(spec.kind)(
        spec, ctx.state, scan_block, flat, carried_in=carried_in
    )
    seconds = perf_counter() - t0 if timed else 0.0
    hits = np.flatnonzero(batch.emit_mask)
    emit_v, values = flat[hits], batch.values[hits]
    bounds = [0, *accumulate(vertices[u].size for u in block)]
    edges = np.add.reduceat(batch.edges, bounds[:-1]).tolist()
    cuts = np.searchsorted(hits, bounds).tolist()
    total = scan_block.flat.size
    return [(
        edges[k], emit_v[cuts[k]:cuts[k + 1]], values[cuts[k]:cuts[k + 1]],
        None if batch.broke is None else batch.broke[bounds[k]:bounds[k + 1]],
        None if batch.carried is None
        else batch.carried[bounds[k]:bounds[k + 1]],
        seconds * rows[u][3] / total,
    ) for k, u in enumerate(block)]


def _lane_blocks(ctx, shared, spec, lane, units, vertices, carried=None):
    """Lane ``lane`` of ``units`` — ``(step, machine)`` each, in walk
    order, every vertex set non-empty; ``carried`` per unit
    ``(present, values)`` or None — scanned block by block: per block,
    its units (a range) and what :func:`_scan_lane` returns for them.
    A unit's row (its machine's adjacency, its vertices' segment starts
    and lengths, their sum) comes from one gather per run of
    consecutive units on one machine."""
    ms, rows = [m for _, m in units], []
    for m, group in groupby(range(len(ms)), key=ms.__getitem__):
        sets = [vertices[u] for u in group]
        local = ctx.local_in(m)
        flat = sets[0] if len(sets) == 1 else np.concatenate(sets)
        starts, lens = local.indptr[flat], local.degrees()[flat]
        bounds = [0, *accumulate(v.size for v in sets)]
        rows += [
            (local, starts[a:b], lens[a:b], e) for a, b, e in zip(
                bounds, bounds[1:],
                np.add.reduceat(lens, bounds[:-1]).tolist(),
            )
        ]
    restored = [False] * len(units) if carried is None else [
        bool(present.any()) for present, _ in carried
    ]
    limit = 0 if shared["solo"] else _BLOCK_EDGES
    run, phase = shared["scan"]
    for block in _blocks([row[3] for row in rows], restored, limit):
        at = {**shared, "scan": (run, phase, units[block.start][0])}
        yield block, _scan_lane(
            ctx, at, spec, ms, block, lane, vertices, rows, carried
        )


def _merged_emits(plain: list, dep: list, num_vertices: int) -> list:
    """Per unit, its two lanes' ``(emit_v, values)`` merged in ascending
    vertex order: one sort over ``(unit, vertex)`` for the units where
    both lanes emitted, cut per unit.  The units' dependency lanes are
    one block's (one carried-in class), so each gets what sorting its
    own two lanes gives, dtype included."""
    emits = [
        pl if not d[0].size else d if not pl[0].size else None
        for pl, d in zip(plain, dep)
    ]
    both = [i for i, pair in enumerate(emits) if pair is None]
    if both:
        lanes = [lane for i in both for lane in (dep[i], plain[i])]
        sizes = [dep[i][0].size + plain[i][0].size for i in both]
        emit_v = np.concatenate([lane[0] for lane in lanes])
        key = emit_v if len(both) == 1 else emit_v + np.repeat(
            np.arange(len(both)) * num_vertices, sizes
        )
        # keys are distinct, and each lane's are ascending already: a
        # stable sort merges those runs rather than sorting from scratch
        order = np.argsort(key, kind="stable")
        emit_v = emit_v[order]
        values = np.concatenate([lane[1] for lane in lanes])[order]
        cuts = list(accumulate(sizes, initial=0))
        for k, i in enumerate(both):
            span = slice(cuts[k], cuts[k + 1])
            emits[i] = (emit_v[span], values[span])
    return emits


def _kernel_result(spec, m, plain, pl, dep, d, emits, name):
    """A kernel-scanned unit's result: ``pl`` / ``d`` its lanes' scans
    (:func:`_scan_lane`; ``_NO_SCAN`` for a lane with no vertex),
    ``plain`` / ``dep`` their vertices, ``emits`` its merged emits,
    ``name`` the carried variable (None: nothing circulates)."""
    return {
        "kind": spec.kind,
        "plain_edges": pl[0],
        "plain_seconds": pl[5],
        "dep_edges": d[0],
        "dep_seconds": d[5],
        "emit_v": emits[0],
        "emit_counts": None,  # a kernel emits once per vertex
        "emit_values": emits[1],
        "broke": d[3],
        "carried": {} if name is None else {
            name: (np.ones(dep.size, dtype=bool), d[4])
        },
        "m": m,
        "plain_vertices": int(plain.size),
        "dep_vertices": int(dep.size),
    }


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
        "dep_vertices": n_dep,
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
    step, or None for a unit with no vertex on either lane.

    ``shared['table']`` is the phase (``BaseEngine._pull_table``): per
    lane, one ``(vertices, cuts)`` per machine — item ``j``'s share of
    machine ``m``'s lane is ``vertices[cuts[j]:cuts[j + 1]]``
    (:func:`unit_lane`) — and ``machine[j][s]``, the machine that scans
    item ``j`` in step ``s``.  A unit (an item in a step) is two lanes
    over that machine's local in-edges: the **dependency lane**,
    vertices taking part in dependency propagation whose skip bit is
    still clear, with the carried state (``shared['carried']`` names
    it) the previous machine handed over; and the **plain lane**,
    vertices scanned with the original UDF and no dependency state.
    The dependency state is the walk's — fresh, or a copy of
    ``shared['dep_in']`` ``(skip, present, data)``.

    ``shared['use_kernel']`` picks the batched kernel or the per-vertex
    interpreter (the oracle: both lanes of a unit in one pass, step by
    step).  No step changes what a plain lane scans, so the kernel
    scans the plain lanes of the whole walk once, machine by machine;
    only the dependency lanes walk the steps, in ascending machine
    order, with the skip filter and the write-back between them.  Both
    scan in *blocks*: consecutive units whose flattened edges fit
    ``_BLOCK_EDGES`` share one call (``shared['solo']``: every unit
    alone — the certifier's replay), and ``shared['scan']`` with the
    step of the block's first unit tells the context's
    :class:`PlanStore` where in the run the block sits.  A lane with no
    vertex costs no call and no row.

    A unit's result does not depend on what it was blocked with:
    per-lane ``*_edges`` (and, for kernels, ``*_seconds`` — the unit's
    edge share of its block's call), ``plain_vertices`` and
    ``dep_vertices``, the scanning machine ``m``, the emitting vertices
    in ascending order (``emit_v``) with how many values each emitted
    (``emit_counts``, or None for "one each", which is all a kernel can
    emit) and the values flattened in that order (``emit_values``: a
    1-D numeric array, or a list when the interpreter emitted anything
    else), and — only for a parent that passed the state in — the
    dependency lane's outgoing state, ``broke`` (mask over the lane, or
    None for a kernel that never breaks) and ``carried``
    (``{name: (present, values)}``).
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
    spec = analyzed.kernel if shared["use_kernel"] else None
    name = spec.carried_vars[0] if spec is not None and store.data else None
    first, stop = shared["steps"]
    width = len(items)
    # the walk's units, step by step in ascending machine order: unit
    # u is item unit_i[u] in step first + u // width, on machine ms[u]
    scanning = np.array(machine, dtype=np.int64)[items, first:stop].T
    order = np.argsort(scanning, axis=1, kind="stable")
    unit_i = order.ravel()
    unit_m = np.sort(scanning, axis=1).ravel()
    unit_j = np.array(items, dtype=np.int64)[unit_i]
    ms = unit_m.tolist()

    def lane(which: str) -> Dict[int, np.ndarray]:
        """The units whose table slice of lane ``which`` holds a vertex,
        ascending, with the slice: nothing is cut for the rest."""
        rows = table[which]
        cuts = np.array([row[1] for row in rows], dtype=np.int64)
        lo, hi = cuts[unit_m, unit_j], cuts[unit_m, unit_j + 1]
        held = np.flatnonzero(hi > lo).tolist()
        return {u: rows[ms[u]][0][lo[u]:hi[u]] for u in held}

    plains, busy = lane("plain"), lane("dep")
    scans: Dict[int, Any] = {}
    if spec is not None:
        # no step changes what a plain lane scans: one scan for the
        # walk, machine by machine
        live = sorted(plains, key=lambda u: (ms[u], u))
        for block, lanes in _lane_blocks(
            ctx, shared, spec, "plain",
            [(first + u // width, ms[u]) for u in live],
            [plains[u] for u in live],
        ):
            scans.update(zip((live[k] for k in block), lanes))
    # only units with a dependency lane walk the steps (on the
    # interpreter, every unit with a vertex: it scans both lanes at once)
    results: Dict[int, Any] = {}
    for k, at in groupby(
        busy if spec is not None else sorted({**plains, **busy}),
        key=lambda u: u // width,
    ):
        at = list(at)
        deps = [busy.get(u, _NO_VERTICES) for u in at]
        deps = [dep[~store.skip[dep]] for dep in deps]
        carried = [
            {key: (store.present[key][dep], values[dep])
             for key, values in store.data.items()}
            for dep in deps
        ] if store.data else None
        if spec is None:
            step = [
                _interp_lanes(
                    analyzed, ctx.state, ctx.local_in(ms[u]), ms[u], dep,
                    None if carried is None else carried[n],
                    plains.get(u, _NO_VERTICES), first + k == last,
                ) if dep.size or u in plains else None
                for n, (u, dep) in enumerate(zip(at, deps))
            ]
        else:
            live = [n for n, dep in enumerate(deps) if dep.size]
            step = [None] * len(at)
            for block, lanes in _lane_blocks(
                ctx, shared, spec, "dep",
                [(first + k, ms[at[n]]) for n in live],
                [deps[n] for n in live],
                None if carried is None else [carried[n][name] for n in live],
            ):
                units = [live[b] for b in block]
                pairs = [scans.get(at[n], _NO_SCAN)[1:3] for n in units]
                for n, d, emits in zip(units, lanes, _merged_emits(
                    pairs, [d[1:3] for d in lanes], ctx.num_vertices
                )):
                    u = at[n]
                    step[n] = _kernel_result(
                        spec, ms[u], plains.get(u, _NO_VERTICES),
                        scans.get(u, _NO_SCAN), deps[n], d, emits, name,
                    )
        write_back(store, deps, step)
        results.update((u, res) for u, res in zip(at, step) if res)
    for u, scan in scans.items():
        if u not in results:  # no dependency lane left: its plain scan
            results[u] = _kernel_result(
                spec, ms[u], plains[u], scan, _NO_VERTICES, _NO_SCAN,
                scan[1:3], name,
            )
    # a unit with no vertex on either lane is None
    walked: List[List[Any]] = [[None] * (stop - first) for _ in items]
    for u, res in results.items():
        if dep_in is None:
            del res["broke"], res["carried"]
        walked[unit_i[u]][u // width] = res
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

"""Pure work units shared by every executor backend.

Each task function here computes what the simulated machines do in one
phase: :func:`pull_walk` for a dense pull — the items of the phase's
table (one per machine for the BSP schedule, one per destination
partition for the circulant one) walked step after step — and
:func:`push_task` for one machine of the sparse push.  A task may take
an executor's whole chunk of consecutive items at once, as the walk
does: it scans the plain lanes of the chunk's units over all its steps
once, and each step's dependency lanes as one array, in blocks (one
kernel call per block, not per unit) without any unit's result
depending on it, and returns one array set for the chunk.  All side
effects (network sends, counter increments, update buffering, fault
draws, obs events) happen in the *parent*, which merges the walked
units step by step in ascending machine order
(``BaseEngine._merge_steps``); that fixed order is what keeps counters,
traffic, and results bit-identical across the serial and process
backends.

Task functions receive a :class:`WorkerContext` (graph topology + state
+ an analyzed-signal cache + the scan plans it keeps under a pull
table), a ``shared`` dict broadcast to every task of one map call, and
its items.  They must not mutate anything reachable from the context
(its :class:`PlanStore` aside, which is a cache of what the topology
and a table alone determine); a walk keeps its items' dependency state
in a store of its own.  The no-mutation rule is doubly load-bearing
under the process backend, where the state arrays are shared-memory
views aliased across every worker — a task that wrote to them would
race its siblings *and* corrupt the parent's authoritative copy;
purity is also what makes the executor's crash-retry (respawn the
pool, rerun the map's chunks) safe.
"""

from __future__ import annotations

from time import perf_counter, sleep
from typing import Any, Dict, List

import numpy as np

from repro.analysis.instrument import AnalyzedSignal, instrument_signal
from repro.analysis.pushspec import classify_push
from repro.engine.dep import DepStore
from repro.graph.csr import spans
from repro.kernels import get_kernel
from repro.kernels.csr import ScanBlock, guarded_emit_scan

__all__ = [
    "WorkerContext",
    "PlanStore",
    "LanePlan",
    "CountingNeighbors",
    "pull_walk",
    "vertex_tables",
    "push_task",
    "unit_lane",
    "joined",
    "update_bins",
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
    context's :class:`PlanStore`: the scan plans kept under the last
    pull table walked here, which — like the adjacency lists — belong
    to this partition and go when the context is replaced.
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
        :func:`pull_walk` is its own) gets the whole chunk in one call
        and returns the chunk's results — the walk, one array set whose
        ``item_edges`` say what each item scanned; any other is called
        item by item, one result each.
        ``stalls`` — one straggler factor per item — turns into a real
        pause after the chunk: each item's ``(stall - 1) x`` its edge
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
            edges = results[0]["item_edges"].tolist() if chunk else [
                result.get("edges", 0) if isinstance(result, dict) else 0
                for result in results
            ]
            total = sum(edges)
            sleep(sum(
                (stall - 1.0) * seconds
                * (share / total if total else 1.0 / len(edges))
                for stall, share in zip(stalls, edges)
                if stall > 1.0
            ))
        return results


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
    numbers of a single type, or of types that all map to the array's
    dtype (a Python int beside a restored ``np.int64``), else the list
    as it is.

    Updates stay arrays from the unit to the state (the slot scatters
    of :mod:`repro.kernels.slots` take arrays only), and an array
    pickles smaller than a list of scalars.  Tuples, objects, types of
    different dtypes and Python ints no fixed-width dtype holds stay a
    list, which the parent applies with the scalar slot loop.
    """
    types = set(map(type, values))
    if not values or not all(issubclass(t, _NUMBERS) for t in types):
        return values
    try:
        array = np.array(values)
    except OverflowError:
        return values
    if array.dtype.kind not in "biuf":
        return values
    if len(types) > 1 and any(np.dtype(t) != array.dtype for t in types):
        return values  # an int beside a float, or past int64
    return array


# The edge budget of one kernel call: consecutive units of a lane are
# scanned together while their edges stay within it (a unit over it is
# a block alone — exactly the per-unit call).  A plain-lane block spans
# steps — a machine's units over all the steps of a walk — so a large
# phase splits by this budget, not by step.  Bounded in both
# directions (DESIGN.md, "A bound in both directions", has the
# readings): far below it units are bound by fixed NumPy call overhead
# and want company; far above it a whole BSP step in one call gains
# nothing, and its edge-sized temporaries cost 8 % of peak RSS.  65,536
# and 262,144 read the same, so the smaller is kept: a block's
# temporaries then stay inside a 2 MiB private cache (GPOP's sizing
# rule).  The budget bounds no count: ``count_to_k_break`` keeps no
# running sum across rows, so the 2**24 its count is exact to under a
# float32 init bounds one row's start plus degree, not a block's hits.
# Below the budget sits the first-match probe's size rule,
# ``csr._PROBE_EDGES`` (8,192): a call of that many edges or fewer is
# scanned whole, a larger one probes each row's first neighbour and
# flattens only the rows the probe leaves open.  The probe costs some
# twenty fixed NumPy calls; probing every call, per call against the
# whole scan (seed 7, block build plus kernel, min of 7), read 1.03x
# under 128 edges and 1.3-1.6x above on ``serve_hot`` (median call 169
# edges, at most 4,829), 1.0x at 2-4 k edges, 0.77x at 4-8 k and 0.5x
# above on ``bfs_skew``, and 0.4-0.5x on ``bfs_gemini``'s large calls
# (median 60 k).
_BLOCK_EDGES = 65_536


class LanePlan:
    """One lane of a walk position, located once.

    The lane's vertices are cut into units (``starts``: each unit's
    first vertex; every unit non-empty) and grouped into ``blocks`` —
    ``(u0, u1, v0, v1, ScanBlock)``: units ``u0:u1``, vertices
    ``v0:v1``, scanned in one kernel call — while a block's edges stay
    within the limit (:func:`_blocks`); ``edges`` is each unit's edges.
    A block flattens its rows when a kernel first reads them, and keeps
    them with the plan.  A unit's rows come from one ``indptr`` /
    ``degrees`` gather per run of consecutive units on one machine.
    Everything here is a function of the topology and the vertex sets,
    which is what lets a context keep a plan while a table recurs.
    """

    __slots__ = ("starts", "edges", "blocks")

    def __init__(self, ctx, machines, sizes, vertices, limit):
        self.starts = np.cumsum(sizes) - sizes
        bounds = [*self.starts.tolist(), vertices.size]
        seg = np.empty(vertices.size, dtype=np.int64)
        lens = np.empty(vertices.size, dtype=np.int64)
        runs = []
        for a, b in _runs(machines):
            local = ctx.local_in(int(machines[a]))
            lo, hi = bounds[a], bounds[b]
            seg[lo:hi] = local.indptr[vertices[lo:hi]]
            lens[lo:hi] = local.degrees()[vertices[lo:hi]]
            runs.append((local, lo, hi))
        self.edges = np.add.reduceat(lens, self.starts)
        self.blocks = []
        for block in _blocks(self.edges, limit):
            v0, v1 = bounds[block.start], bounds[block.stop]
            self.blocks.append((
                block.start, block.stop, v0, v1,
                ScanBlock(seg[v0:v1], lens[v0:v1], [
                    (local, max(lo, v0) - v0, min(hi, v1) - v0)
                    for local, lo, hi in runs if lo < v1 and hi > v0
                ]),
            ))

    @property
    def nbytes(self) -> int:
        return (self.starts.nbytes + self.edges.nbytes
                + sum(block[4].nbytes for block in self.blocks))


class PlanStore:
    """The lane plans a context keeps, and its scan counters.

    A :class:`LanePlan` is a function of the topology and a lane's
    vertex sets, which a pull table (``BaseEngine._pull_table``) fixes:
    under one table ``serial``, a lane position (a walk's plain lane or
    a dependency step, of one chunk of items) is one plan.  The store
    keeps one serial's: a new serial drops every kept plan; a position
    seen once keeps nothing, and from its second sighting on its plan is
    kept and then served.  The engine's table memo decides what recurs
    (a new run or mask set is a new table), so what one run counts never
    depends on what ran before it; the topology needs no key, a context
    being replaced with its partition.  The counters count blocks:
    kernel calls, the unit lanes they scan, plans built or reused.
    """

    COUNTERS = ("blocks", "units", "plans_built", "plans_reused")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.COUNTERS, 0)
        self._serial = None
        # position -> its plan, or None for a position seen once
        self._plans: Dict[Any, Any] = {}

    def plan(self, serial, key, build) -> LanePlan:
        """The plan of position ``key`` of table ``serial``: the kept
        one, else ``build()``'s, kept from the second sighting on."""
        if serial != self._serial:
            self._serial, self._plans = serial, {}
        plan = self._plans.get(key)
        fresh = plan is None
        if fresh:
            plan = build()
            self._plans[key] = plan if key in self._plans else None
        self.count(plan, fresh)
        return plan

    def count(self, plan: LanePlan, fresh: bool = True) -> None:
        counts = self.counts
        counts["blocks"] += len(plan.blocks)
        counts["units"] += plan.starts.size
        counts["plans_built" if fresh else "plans_reused"] += len(plan.blocks)

    def take(self) -> Dict[str, int]:
        """The counters since the last take, which it zeroes."""
        counts, self.counts = self.counts, dict.fromkeys(self.COUNTERS, 0)
        return counts

    @property
    def nbytes(self) -> int:
        """Bytes held by kept plans."""
        # list(): /stats reads this from another thread mid-run
        plans = list(self._plans.values())
        return sum(plan.nbytes for plan in plans if plan is not None)


_NO_VERTICES = np.zeros(0, dtype=np.int64)


def _runs(machines: np.ndarray):
    """``(a, b)`` per run ``a:b`` of consecutive units on one machine."""
    cuts = np.flatnonzero(machines[1:] != machines[:-1]) + 1
    cuts = [0, *cuts.tolist(), machines.size]
    return zip(cuts, cuts[1:])


def _blocks(edges: np.ndarray, limit: int):
    """Consecutive units (as ranges of unit indices) grouped while the
    group's edges stay within ``limit``."""
    if edges.sum() <= limit:
        yield range(edges.size)  # the common case: one call
        return
    edges = edges.tolist()
    first, total = 0, 0
    for u, unit_edges in enumerate(edges):
        if u > first and total + unit_edges > limit:
            yield range(first, u)
            first, total = u, 0
        total += unit_edges
    if first < len(edges):
        yield range(first, len(edges))


def _lane_plan(ctx, shared, key, machines, sizes, vertices):
    """The plan of lane position ``key`` of the walk's table, kept in
    the context's :class:`PlanStore` under the table's serial.  A lane
    the table does not fix (``key`` None: a dependency lane the skip
    filter has cut) builds its plan and keeps nothing, as does the
    certifier's replay (``shared['solo']``), which builds every unit
    alone."""
    def build():
        return LanePlan(ctx, machines, sizes, vertices,
                        0 if shared["solo"] else _BLOCK_EDGES)

    if key is None or shared["solo"]:
        plan = build()
        ctx.plans.count(plan)
        return plan
    return ctx.plans.plan(shared["table"]["serial"], key, build)


def vertex_tables(spec, state) -> Dict[str, np.ndarray]:
    """The per-vertex tables of ``spec``'s neighbour-only roles
    (:attr:`~repro.analysis.kernelspec.KernelSpec.vertex_roles`) over
    ``state``: a bare read's own array, no copy; any other role
    evaluated once over every vertex — over the whole arrays
    (``slice(None)``: no id array, no gather) when each ``__u`` of its
    source is a whole subscript ``[__u]``, else over every vertex id.

    Built per :func:`pull_walk` call and never kept: workers write no
    state during a phase, so one table serves the walk, and a replayed
    phase builds its own from the state it reads.  A table evaluates
    vertices no edge reads (a sink's ``rank / 0``), so floating-point
    warnings are off, and a role whose table raises there (an integer
    to a negative power) stays per edge.
    """
    tables, whole = {}, spec.whole_roles
    for role, field in spec.vertex_roles.items():
        if field is not None:
            tables[role] = getattr(state, field)
            continue
        index = slice(None) if role in whole else np.arange(
            state.num_vertices, dtype=np.int64
        )
        try:
            with np.errstate(all="ignore"):
                value = spec.exprs[role](state, index, None)
        except (ArithmeticError, ValueError):
            continue
        tables[role] = np.broadcast_to(value, (state.num_vertices,))
    return tables


def _scan_lane(ctx, shared, spec, plan, vertices, carried_in, tables):
    """A lane's kernel calls, one per block of ``plan`` over
    ``vertices`` (``carried_in``: ``(present, values)`` aligned with
    them, or None), each gathering its neighbour-only roles from
    ``tables`` (:func:`vertex_tables`).

    Per unit, the edges it scanned and its share of its call's seconds
    (by the edges of its rows, what a call's time goes with); per vertex,
    ``broke`` and ``carried`` (None where the kernel returns none);
    the emitting vertices' positions in ``vertices`` and, per block,
    their values.  A kernel decides nothing per call that a unit could
    not tell from its own, so each unit's share of these is what its
    own call returns.
    """
    timed = shared["timed"]
    seconds = np.zeros(plan.starts.size)
    edges, hits, values, broke, carried = [], [], [], [], []
    for u0, u1, v0, v1, block in plan.blocks:
        t0 = perf_counter() if timed else 0.0
        batch = get_kernel(spec.kind)(
            spec, ctx.state, block, vertices[v0:v1],
            carried_in=None if carried_in is None else (
                carried_in[0][v0:v1], carried_in[1][v0:v1]
            ),
            tables=tables,
        )
        if timed:  # the call's seconds per edge of its rows, for now
            took = perf_counter() - t0
            seconds[u0:u1] = took / max(block.total, 1)
        hit = np.flatnonzero(batch.emit_mask)
        edges.append(batch.edges)
        hits.append(hit + v0)
        values.append(batch.values[hit])
        broke.append(batch.broke)
        carried.append(batch.carried)
    if timed:
        seconds *= plan.edges
    return (
        np.add.reduceat(np.concatenate(edges), plan.starts),
        np.concatenate(hits), values,
        None if broke[0] is None else np.concatenate(broke),
        None if carried[0] is None else np.concatenate(carried),
        seconds,
    )


def _end_to_end(parts: list):
    """Value runs end to end: one array where every non-empty run is an
    array of one dtype, else one list — an array's elements in it as
    NumPy scalars, what the scalar slot loop reads from an array too."""
    parts = [part for part in parts if len(part)]
    if not parts:
        return _NO_VERTICES
    if all(isinstance(part, np.ndarray) for part in parts) and len(
        {part.dtype for part in parts}
    ) == 1:
        return parts[0] if len(parts) == 1 else np.concatenate(parts)
    return [value for part in parts for value in list(part)]


class _Walk:
    """The array set a walk returns, filled lane by lane.

    Units are the walk's, step-major, each step's in ascending machine
    order; per unit the lane columns, and the emits of every lane as
    pieces — the emitting units with their emitting vertices' counts,
    the vertices, the value runs and the per-vertex value counts (None:
    one each) — merged into unit order, ascending vertex order within a
    unit, by :meth:`result`.
    """

    LANES = ("plain", "dep")

    def __init__(self, unit_m, unit_i, width, kind, num_vertices):
        self.unit_m, self.unit_i, self.width = unit_m, unit_i, width
        self.kind, self.n = kind, num_vertices
        size = unit_m.size
        self.cols = {}
        for lane in self.LANES:
            self.cols[lane + "_edges"] = np.zeros(size, dtype=np.int64)
            self.cols[lane + "_vertices"] = np.zeros(size, dtype=np.int64)
            self.cols[lane + "_seconds"] = np.zeros(size)
        self.pieces = []
        self.state = []

    def lane(self, lane, units, sizes, starts, vertices, scanned):
        """A lane's kernel scan (:func:`_scan_lane`) of ``units``."""
        edges, hits, values, _, _, seconds = scanned
        self.cols[lane + "_edges"][units] = edges
        self.cols[lane + "_vertices"][units] = sizes
        self.cols[lane + "_seconds"][units] = seconds
        if hits.size:
            counts = np.diff(np.searchsorted(
                hits, np.append(starts, vertices.size)
            ))
            self.pieces.append((units, counts, vertices[hits], values, None))

    def result(self, with_state: bool) -> Dict[str, Any]:
        """The array set; ``with_state``: with the dependency lanes'
        scanned vertices and outgoing state, step after step."""
        out = {"kind": self.kind, "m": self.unit_m, "width": self.width,
               **self.cols, **self._merged()}
        out["item_edges"] = np.bincount(
            self.unit_i, self.cols["plain_edges"] + self.cols["dep_edges"],
            minlength=self.width,
        ).astype(np.int64)
        if with_state:
            dep_v, broke, carried = zip((_NO_VERTICES, None, {}), *self.state)
            out["dep_v"] = np.concatenate(dep_v)
            out["broke"] = None if broke[-1] is None else np.concatenate(
                broke[1:]
            )
            out["carried"] = {
                name: tuple(map(np.concatenate, zip(*(
                    c[name] for c in carried[1:]
                ))))
                for name in carried[-1]
            }
        return out

    def _merged(self) -> Dict[str, Any]:
        """The pieces' emits in unit order: one sort over ``(unit,
        vertex)`` where they are not in it already — a kernel walk scans
        its plain lanes before its steps; each piece is ascending within
        a unit, so a stable sort merges runs.  The interpreter's units
        come in order, so only kernel values, one each, are reordered."""
        emit_n = np.zeros(self.unit_m.size, dtype=np.int64)
        if not self.pieces:
            return dict(emit_v=_NO_VERTICES, emit_n=emit_n, emit_counts=None,
                        emit_values=_NO_VERTICES)
        units, counts, emit_v, values, emit_counts = zip(*self.pieces)
        for at, n in zip(units, counts):
            emit_n[at] += n
        emit_counts = _counts(emit_v, emit_counts)
        emit_v = np.concatenate(emit_v)
        values = _end_to_end([part for parts in values for part in parts])
        key = np.repeat(np.concatenate(units), np.concatenate(counts))
        key *= self.n
        key += emit_v
        # the pieces are sorted runs, which NumPy's stable sort merges:
        # here about 2x quicker than graph.csr.stable_order's SIMD sort
        if (key[1:] < key[:-1]).any():
            order = np.argsort(key, kind="stable")
            emit_v, values = emit_v[order], values[order]
        return dict(emit_v=emit_v, emit_n=emit_n, emit_counts=emit_counts,
                    emit_values=values)


def _counts(emit_v, counts):
    """Parts' per-vertex value counts end to end, or None when every
    part's is None — one value each."""
    if all(c is None for c in counts):
        return None
    return np.concatenate([
        np.ones(v.size, dtype=np.int64) if c is None else c
        for v, c in zip(emit_v, counts)
    ])


def _interp_lanes(analyzed, state, local, dep, carried, plain, is_last):
    """Both lanes of one unit on the per-vertex interpreter, in one
    ascending pass: the instrumented UDF with a dependency handle for
    dependency-lane vertices, the original UDF for the rest.  Returns
    the lanes' edges, the unit's emits ``(emit_v, counts or None,
    values)`` and the dependency lane's outgoing ``broke`` and
    ``carried`` (``{name: (present, values)}``)."""
    n_dep = dep.size
    # Lane-local dependency state, indexed by position in ``dep``: a
    # vertex the parent let through starts from exactly what it was
    # sent — nothing at all when its dependency message was lost.
    store = DepStore(n_dep, {
        name: values.dtype for name, (_, values) in (carried or {}).items()
    }, share_data=carried is not None)
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
    emits = (
        np.array(emit_v, dtype=np.int64),
        None if len(emit_values) == len(emit_v)
        else np.array(emit_counts, dtype=np.int64),
        _as_values(emit_values),
    )
    carried_out = {
        name: (store.present[name], store.data[name]) for name in store.data
    }
    return plain_edges, dep_edges, emits, store.skip, carried_out


def unit_lane(table: Dict[str, Any], lane: str, m: int, item: int):
    """The vertices machine ``m`` scans for ``item`` on ``lane``
    (``"dep"`` or ``"plain"``) of a pull phase's table."""
    vertices, cuts = table[lane]
    return vertices[cuts[m, item]:cuts[m, item + 1]]


def write_back(dep_store, vertices, broke, carried) -> None:
    """A finished step's break bits and carried data into
    ``dep_store``: ``broke`` (a mask over ``vertices``, or None) and
    ``carried`` (``{name: (present, values)}``, aligned with them), one
    scatter each — a step's partitions are disjoint."""
    if broke is not None:
        dep_store.skip[vertices[broke]] = True
    for name, (present, values) in carried.items():
        if name in dep_store.data:
            dep_store.present[name][vertices] = present
            dep_store.data[name][vertices] = values


def pull_walk(
    ctx: WorkerContext, shared: Dict[str, Any], items: List[int]
) -> List[Dict[str, Any]]:
    """The pull task: items of a phase's table walked over the steps
    ``shared['steps']`` (``(first, stop)``); returns one array set for
    the whole chunk (in a list: the chunk's results).

    ``shared['table']`` is the phase (``BaseEngine._pull_table``): its
    ``serial``; per lane, ``(vertices, cuts)`` — item ``j``'s share of
    machine ``m``'s lane is ``vertices[cuts[m, j]:cuts[m, j + 1]]``
    (:func:`unit_lane`) — and ``machine[j][s]``, the machine that scans
    item ``j`` in step ``s``.  A unit (an item in a step) is two lanes
    over that machine's local in-edges: the **dependency lane**,
    vertices taking part in dependency propagation whose skip bit is
    still clear, with the carried state (``shared['carried']`` names it)
    the previous machine handed over; and the **plain lane**, vertices
    scanned with the original UDF and no dependency state.  The
    dependency state is the walk's — fresh, or a copy of
    ``shared['dep_in']`` ``(skip, present, data)``.

    ``shared['use_kernel']`` picks the batched kernel or the per-vertex
    interpreter (the oracle: both lanes of a unit in one pass, step by
    step, unit by unit).  No step changes what a plain lane scans, so
    the kernel scans the plain lanes of the whole walk once, machine by
    machine; only the dependency lanes walk the steps, each step's
    gathered as one array (the skip filter and the carried gather run
    once on it, the write-back is one scatter).  Both scan in *blocks*
    of a lane's :class:`LanePlan` — consecutive units whose flattened
    edges fit ``_BLOCK_EDGES`` share one call (``shared['solo']``: every
    unit alone, the certifier's replay), kept under the table's serial
    (:func:`_lane_plan`).  A lane with no vertex costs no call and no
    row.  Every kernel call of the walk gathers the spec's neighbour-only
    roles from tables the walk builds once (:func:`vertex_tables`), never
    kept beyond it.

    The result holds, per unit (``m``: the scanning machine; the walk's
    units step-major, each step's ``width`` units in ascending machine
    order): ``plain_*`` / ``dep_*`` ``edges``, ``vertices`` and, for
    kernels, ``seconds`` (the unit's edge share of its block's call);
    the emits in unit order, ascending vertex order within a unit —
    ``emit_v``, ``emit_n`` per unit, ``emit_counts`` per emitting vertex
    (None for "one each", all a kernel can emit) and ``emit_values``,
    one array — a kernel's always; the interpreter's when its units'
    values are numbers of one dtype, else one list (:func:`_end_to_end`);
    ``item_edges``, what each item scanned; and — only for a parent
    that passed the state in — the dependency lanes' scanned vertices
    ``dep_v`` with their outgoing ``broke`` (or None for a kernel that
    never breaks) and ``carried`` (``{name: (present, values)}``).
    None of it depends on what a unit was blocked with.
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
    name = next(iter(store.data), None)  # a kernel carries one at most
    tables = None if spec is None else vertex_tables(spec, ctx.state)
    first, stop = shared["steps"]
    width = len(items)
    chunk = tuple(items)  # with the steps, a lane position of the table
    # the walk's units, step by step in ascending machine order: unit
    # u is item unit_i[u] in step first + u // width, on machine unit_m[u]
    items = np.asarray(items)
    scanning = np.asarray(machine)[items, first:stop].T
    unit_i = np.argsort(scanning, axis=1, kind="stable").ravel()
    unit_m = np.sort(scanning, axis=1).ravel()
    unit_j = items[unit_i]

    def lane(which: str):
        """The lane's vertex array and each unit's slice ``[lo, hi)``."""
        vertices, cuts = table[which]
        return vertices, cuts[unit_m, unit_j], cuts[unit_m, unit_j + 1]

    plain, dep = lane("plain"), lane("dep")
    walk = _Walk(unit_m, unit_i, width, None if spec is None else spec.kind,
                 ctx.num_vertices)
    held = np.flatnonzero(plain[2] > plain[1])
    if spec is not None and held.size:
        # no step changes what a plain lane scans: one scan for the
        # walk, machine by machine
        units = held[np.argsort(unit_m[held], kind="stable")]
        sizes = plain[2][units] - plain[1][units]
        vertices = plain[0][spans(plain[1][units], sizes)]
        plan = _lane_plan(ctx, shared, ("plain", first, stop, chunk),
                          unit_m[units], sizes, vertices)
        walk.lane("plain", units, sizes, plan.starts, vertices, _scan_lane(
            ctx, shared, spec, plan, vertices, None, tables
        ))
    # only units with a dependency lane walk the steps (on the
    # interpreter, every unit with a vertex: it scans both lanes at
    # once), their lanes gathered once for the walk: step k's units are
    # busy[cut[k]:cut[k + 1]], unit busy[a]'s vertices gathered[lo[a]:hi[a]]
    busy = np.flatnonzero(
        (dep[2] > dep[1]) | (plain[2] > plain[1] if spec is None else False)
    )
    cut = np.searchsorted(busy, np.arange(stop - first + 1) * width).tolist()
    sizes = dep[2][busy] - dep[1][busy]
    gathered = dep[0][spans(dep[1][busy], sizes)]
    hi = np.cumsum(sizes)
    lo = hi - sizes
    keys = list(store.data)
    # a skip bit is only read once one is set
    skipping = dep_in is not None and bool(store.skip.any())
    for k in range(stop - first):
        a, b = cut[k], cut[k + 1]
        if a == b:
            continue
        at, counts = busy[a:b], sizes[a:b]
        vertices = gathered[lo[a]:hi[b - 1]]
        if skipping:
            keep = ~store.skip[vertices]
            kept = np.concatenate(([0], np.cumsum(keep)))
            ends = np.cumsum(counts)
            counts = kept[ends] - kept[ends - counts]
            vertices = vertices[keep]
        starts = np.cumsum(counts) - counts
        carried = {
            key: (store.present[key][vertices], store.data[key][vertices])
            for key in keys
        }
        if spec is None:
            broke, carried_out = _interp_step(
                ctx, analyzed, walk, at, vertices, counts, starts,
                carried if store.data else None, plain, first + k == last,
            )
        else:
            live = counts > 0
            if not live.any():
                continue
            at, counts, starts = at[live], counts[live], starts[live]
            # a lane the skip filter cut is the walk's, not the table's
            key = None if skipping else ("dep", first + k, chunk)
            plan = _lane_plan(ctx, shared, key, unit_m[at], counts, vertices)
            scanned = _scan_lane(ctx, shared, spec, plan, vertices,
                                 carried.get(name), tables)
            walk.lane("dep", at, counts, starts, vertices, scanned)
            broke = scanned[3]
            # a kernel's carried value is always there
            carried_out = {} if name is None else {name: (True, scanned[4])}
        if dep_in is not None:
            walk.state.append((vertices, broke, {
                key: (np.broadcast_to(present, vertices.shape), values)
                for key, (present, values) in carried_out.items()
            }))
        if first + k + 1 < stop:  # the walk's last state goes nowhere
            write_back(store, vertices, broke, carried_out)
            skipping = skipping or broke is not None and bool(broke.any())
    return [walk.result(dep_in is not None)]


def _interp_step(ctx, analyzed, walk, at, dep, sizes, starts, carried,
                 plain, is_last):
    """A step's units ``at`` on the interpreter, unit by unit: ``dep``
    their skip-filtered dependency lanes end to end (``sizes`` /
    ``starts`` per unit) with ``carried`` aligned (or None), ``plain``
    the walk's plain lane.  Books each unit into ``walk`` and returns
    the step's ``broke`` and ``carried`` over ``dep``."""
    broke, carried_out = [], []
    ends = (starts + sizes).tolist()
    for u, a, b in zip(at.tolist(), starts.tolist(), ends):
        unit_plain = plain[0][plain[1][u]:plain[2][u]]
        if a == b and not unit_plain.size:
            continue
        plain_edges, dep_edges, emits, skip, out = _interp_lanes(
            analyzed, ctx.state, ctx.local_in(int(walk.unit_m[u])),
            dep[a:b],
            None if carried is None else {
                key: (present[a:b], values[a:b])
                for key, (present, values) in carried.items()
            },
            unit_plain, is_last,
        )
        walk.cols["plain_edges"][u] = plain_edges
        walk.cols["plain_vertices"][u] = unit_plain.size
        walk.cols["dep_edges"][u] = dep_edges
        walk.cols["dep_vertices"][u] = b - a
        emit_v, counts, values = emits
        if emit_v.size:
            walk.pieces.append(([u], [emit_v.size], emit_v, [values], counts))
        broke.append(skip)
        carried_out.append(out)
    if not broke:  # no unit held a vertex: ``dep`` and ``carried`` are empty
        return np.zeros(0, dtype=bool), carried or {}
    return np.concatenate(broke), {
        key: tuple(
            np.concatenate([c[key][k] for c in carried_out]) for k in (0, 1)
        )
        for key in (carried or {})
    }


#: the per-unit columns of a walk's array set
_UNIT_COLUMNS = tuple(
    f"{lane}_{what}" for lane in _Walk.LANES
    for what in ("edges", "vertices", "seconds")
)


def joined(walks: List[Dict[str, Any]], p: int) -> Dict[str, Any]:
    """A map's chunk walks (:func:`pull_walk`, one per executor chunk)
    as one walk over all its items, units in ``(step, machine)`` order —
    a whole map's units are the ``(steps, p)`` grid."""
    if len(walks) == 1:
        return walks[0]
    step = np.concatenate([
        np.arange(w["m"].size) // w["width"] for w in walks
    ])
    m = np.concatenate([w["m"] for w in walks])
    order = np.argsort(step * p + m, kind="stable")
    out = {"kind": walks[0]["kind"], "m": m[order], "width": p}
    for key in _UNIT_COLUMNS:
        out[key] = np.concatenate([w[key] for w in walks])[order]
    emit_n = np.concatenate([w["emit_n"] for w in walks])
    ends = np.cumsum(emit_n)
    at = spans((ends - emit_n)[order], emit_n[order])
    out["emit_v"] = np.concatenate([w["emit_v"] for w in walks])[at]
    out["emit_n"] = emit_n[order]
    values = _end_to_end([w["emit_values"] for w in walks])
    counts = _counts([w["emit_v"] for w in walks],
                     [w["emit_counts"] for w in walks])
    out["emit_counts"] = None if counts is None else counts[at]
    if counts is not None:  # a vertex's values are one run of its count
        at = spans((np.cumsum(counts) - counts)[at], counts[at])
    out["emit_values"] = values[at] if isinstance(values, np.ndarray) else [
        values[i] for i in at.tolist()
    ]
    return out


def update_bins(walk: Dict[str, Any]) -> List[tuple]:
    """A walk's updates as ``(v, values)`` bins in unit order: the
    per-unit bins end to end, one bin as one scatter takes it (none for
    no update)."""
    emit_v, counts = walk["emit_v"], walk["emit_counts"]
    v = emit_v if counts is None else np.repeat(emit_v, counts)
    return [(v, walk["emit_values"])] if v.size else []


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

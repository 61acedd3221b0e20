"""Pure work units shared by every executor backend.

Each task function here computes what one simulated machine does in one
(phase, step) — :func:`pull_task` for the BSP pull, :func:`push_task`
for the sparse push — or, :func:`pull_column`, what the machines do to
one destination partition over a circulant phase, step after step.  A
task may have a *chunk form* that takes an executor's whole chunk of
consecutive items at once: :func:`pull_units` is :func:`pull_task`'s,
and scans the chunk's units in blocks (one kernel call per lane of a
block, not of a unit) without any unit's result depending on it;
:func:`pull_walk` is :func:`pull_column`'s.  All side effects (network
sends, counter increments, update buffering, fault draws, obs events)
happen in the *parent*, which merges results step by step in ascending
machine order (``BaseEngine._merge_step``); that fixed order is what
keeps counters, traffic, and results bit-identical across the serial
and process backends.

Task functions receive a :class:`WorkerContext` (graph topology + state
+ an analyzed-signal cache + the scan plans it keeps between phases), a
``shared`` dict broadcast to every task of one map call, and one
``item`` dict per machine or partition.  They must not mutate anything
reachable from the context (its :class:`PlanStore` aside, which is a
cache of what the topology alone determines); a walk keeps its
partitions' dependency state in a store of its own.  The no-mutation
rule is doubly load-bearing under the process backend, where the state
arrays are shared-memory views aliased across every worker — a task
that wrote to them would race its siblings *and* corrupt the parent's
authoritative copy; purity is also what makes the executor's
crash-retry (respawn the pool, rerun the map's chunks) safe.
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
    "pull_units",
    "pull_task",
    "pull_walk",
    "pull_column",
    "push_task",
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
        :func:`pull_task` has in :func:`pull_units`) gets the whole
        chunk in one call; any other is called item by item.
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
    a list is a column's units."""
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


class _Lane:
    """One lane of one unit: its vertices, where their neighbor
    segments lie in the unit's adjacency, and the carried state the
    kernel restores (``(present, values)`` or None)."""

    __slots__ = ("vertices", "starts", "lens", "edges", "carried_in")

    def __init__(self, vertices, starts, lens, carried_in=None) -> None:
        self.vertices = vertices
        self.starts = starts
        self.lens = lens
        self.edges = int(lens.sum()) if lens.size else 0
        self.carried_in = carried_in


def _located(local, vertices, carried_in=None) -> _Lane:
    if not vertices.size:
        return _Lane(vertices, _NO_ROWS.edges, _NO_ROWS.edges, carried_in)
    starts = local.indptr[vertices]
    return _Lane(
        vertices, starts, local.indptr[vertices + 1] - starts, carried_in
    )


class _Unit:
    """One item's O(vertices) share of a kernel scan: the candidate
    filter, and both lanes located in the machine's adjacency.  The
    edge count the block budget needs falls out of the segment lengths;
    nothing is gathered twice."""

    __slots__ = ("m", "local", "dep", "plain", "carries", "restored")

    def __init__(self, ctx, shared, item, spec) -> None:
        self.m = int(item["m"])
        self.local = local = ctx.local_in(self.m)
        plain = item.get("plain")
        if plain is None:
            active = shared["active"]
            lens = local.degrees()[active]
            keep = lens > 0
            plain = active[keep]
            self.plain = _Lane(plain, local.indptr[plain], lens[keep])
        else:
            self.plain = _located(local, plain)
        dep = item.get("dep")
        carried = item.get("carried")
        self.carries = bool(carried)
        self.dep = None if dep is None else _located(
            local, dep, carried[spec.carried_vars[0]] if carried else None
        )
        # the dependency lane's carried-in class; None: no row to class
        self.restored = None
        if dep is not None and dep.size:
            self.restored = bool(carried) and bool(
                self.dep.carried_in[0].any()
            )

    @property
    def edges(self) -> int:
        return self.plain.edges + (0 if self.dep is None else self.dep.edges)


def _blocks(units: List[_Unit], limit: int):
    """Consecutive units grouped while the group's edges stay within
    ``limit`` and its dependency lanes share one carried-in class (a
    kernel picks its fold dtype once per call from "is anything
    restored", so a unit that restores values never shares a call with
    one that does not)."""
    block: List[_Unit] = []
    edges, restored = 0, None
    for unit in units:
        clash = None not in (restored, unit.restored) and (
            restored != unit.restored
        )
        if block and (clash or edges + unit.edges > limit):
            yield block
            block, edges, restored = [], 0, None
        block.append(unit)
        edges += unit.edges
        if unit.restored is not None:
            restored = unit.restored
    if block:
        yield block


def _scan_lane(ctx, shared, spec, units: List[_Unit], lane: str) -> list:
    """One lane of a block in one kernel call.

    Per unit, ``(edges, emit_v, values, broke, carried, seconds)``: the
    edges its vertices scanned, its emitting vertices and their values
    in lane order, its slices of the batch's ``broke`` and ``carried``
    (aligned with its lane's vertices; None where the kernel returns
    none), and its share of the call's seconds — by flattened edges,
    what a call's time goes with.  Every array is the unit's slice of
    the block's, cut at the unit offsets: what its own call returns,
    dtype and bytes.  A unit with no vertex on the lane gets what a
    kernel returns for no vertices, without a call; a unit without the
    lane gets None.
    """
    lanes = [getattr(unit, lane) for unit in units]
    out = [
        None if ln is None else (
            0, ln.vertices[:0], _NO_ROWS.values, _NO_ROWS.broke,
            _NO_ROWS.carried, 0.0,
        )
        for ln in lanes
    ]
    live = [
        i for i, ln in enumerate(lanes)
        if ln is not None and ln.vertices.size
    ]
    if not live:
        return out
    rows = [
        (units[i].local, lanes[i].starts, lanes[i].lens, lanes[i].edges)
        for i in live
    ]
    carried = [lanes[i].carried_in for i in live]
    if len(live) == 1:
        vertices, carried_in = lanes[live[0]].vertices, carried[0]
    else:
        vertices = np.concatenate([lanes[i].vertices for i in live])
        # units that were handed no carried state restore nothing, and
        # neither does anything they are blocked with (_blocks)
        carried_in = None if None in carried else tuple(
            np.concatenate(part) for part in zip(*carried)
        )
    block = ctx.plans.block(
        shared["scan"], lane, tuple(units[i].m for i in live), rows, vertices
    )
    timed = shared["timed"]
    t0 = perf_counter() if timed else 0.0
    batch = get_kernel(spec.kind)(
        spec, ctx.state, block, vertices, carried_in=carried_in
    )
    seconds = perf_counter() - t0 if timed else 0.0
    hits = np.flatnonzero(batch.emit_mask)
    emit_v, values = vertices[hits], batch.values[hits]
    bounds = [0]
    for i in live:
        bounds.append(bounds[-1] + lanes[i].vertices.size)
    edges = np.add.reduceat(batch.edges, bounds[:-1]).tolist()
    cuts = np.searchsorted(hits, bounds).tolist()
    total = block.flat.size
    for k, i in enumerate(live):
        span = slice(bounds[k], bounds[k + 1])
        emits = slice(cuts[k], cuts[k + 1])
        out[i] = (
            edges[k], emit_v[emits], values[emits],
            None if batch.broke is None else batch.broke[span],
            None if batch.carried is None else batch.carried[span],
            seconds * lanes[i].edges / total,
        )
    return out


def _merged_emits(plain: list, dep: list, num_vertices: int) -> list:
    """Per unit of a block, its two lanes' emits in ascending vertex
    order: one sort over ``(unit, vertex)`` for the block, cut per unit.
    Every unit's lane is a slice of that lane's one batch, so each gets
    what sorting its own two lanes gives, dtype included."""
    emits = [
        pl[1:3] if d is None or not d[1].size
        else d[1:3] if not pl[1].size else None
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


def _kernel_lanes(ctx, shared, spec, items) -> List[Dict[str, Any]]:
    """Both lanes of every unit on the batched kernel, block by block:
    one call per lane of a block, one emit merge per block."""
    units = [_Unit(ctx, shared, item, spec) for item in items]
    results = []
    for block in _blocks(units, 0 if shared["solo"] else _BLOCK_EDGES):
        plain = _scan_lane(ctx, shared, spec, block, "plain")
        dep = _scan_lane(ctx, shared, spec, block, "dep")
        emits = _merged_emits(plain, dep, ctx.num_vertices)
        for unit, lane, dep_lane, (emit_v, values) in zip(
            block, plain, dep, emits
        ):
            dep_edges, _, _, broke, carried, dep_seconds = (
                dep_lane or (0, None, None, None, None, 0.0)
            )
            results.append({
                "kind": spec.kind,
                "plain_edges": lane[0],
                "plain_seconds": lane[5],
                "dep_edges": dep_edges,
                "dep_seconds": dep_seconds,
                "emit_v": emit_v,
                "emit_counts": None,  # a kernel emits once per vertex
                "emit_values": values,
                "broke": broke,
                "carried": {spec.carried_vars[0]: (
                    np.ones(unit.dep.vertices.size, dtype=bool), carried
                )} if unit.carries else {},
                "m": unit.m,
                "plain_vertices": int(unit.plain.vertices.size),
            })
    return results


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


def pull_units(
    ctx: WorkerContext, shared: Dict[str, Any], items: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """The pull work units of one chunk — machines of one pull step, in
    ascending order — as one result per item.

    Each item is one machine's share of the step, two lanes over
    machine ``item['m']``'s local in-edges:

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
    interpreter for both lanes.  The kernel scans the chunk in *blocks*:
    consecutive units whose flattened edges fit ``_BLOCK_EDGES`` share
    one kernel call per lane (``shared['solo']`` puts every unit in a
    block of its own — the certifier's replay), with
    ``shared['scan']`` — ``(run, phase, step)`` — telling the context's
    :class:`PlanStore` where in the run the chunk sits.  A unit's
    result does not depend on what it was blocked with, and has one
    shape either way: per-lane ``*_edges`` (and, for kernels,
    ``*_seconds`` — the unit's edge share of its block's call),
    ``plain_vertices``, the emitting vertices in ascending order
    (``emit_v``) with how many values each emitted (``emit_counts``, or
    None for "one each", which is all a kernel can emit) and the values
    flattened in that order (``emit_values``: a 1-D numeric array, or a
    list when the interpreter emitted anything else), and the
    dependency lane's outgoing state for the parent to write back —
    ``broke`` (mask over ``dep``, or None for a kernel that never
    breaks) and ``carried`` (same layout as the input).
    """
    analyzed = ctx.analyzed(shared["signal"])
    if shared["use_kernel"]:
        return _kernel_lanes(ctx, shared, analyzed.kernel, items)
    results = []
    for item in items:
        m = int(item["m"])
        local = ctx.local_in(m)
        plain = item.get("plain")
        if plain is None:
            active = shared["active"]
            plain = active[local.degrees()[active] > 0]
        out = _interp_lanes(
            analyzed, ctx.state, local, item.get("dep"), item.get("carried"),
            plain, shared["is_last"],
        )
        out["m"] = m
        out["plain_vertices"] = int(plain.size)
        results.append(out)
    return results


def pull_task(
    ctx: WorkerContext, shared: Dict[str, Any], item: Dict[str, Any]
) -> Dict[str, Any]:
    """One machine's share of one pull step: :func:`pull_units` of a
    chunk of one, which executors call for the whole chunk instead."""
    return pull_units(ctx, shared, [item])[0]


pull_task.chunk = pull_units


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


def lane_at(column: Dict[str, Any], lane: str, step: int) -> np.ndarray:
    """A column's ``lane`` (``"dep"`` or ``"plain"``) in ``step``."""
    at = column[lane + "_at"]
    return column[lane][at[step]:at[step + 1]]


def pull_walk(
    ctx: WorkerContext, shared: Dict[str, Any], columns: List[Dict[str, Any]]
) -> List[List[Dict[str, Any]]]:
    """Columns walked over the steps ``shared['steps']`` (``(first,
    stop)``): per column, one :func:`pull_units` result a step.

    Column ``j`` holds each lane for every step (:func:`lane_at`); in
    step ``s`` machine ``(j - s - 1) % p`` scans it, a step's units in
    ascending machine order, as a step's always blocked.  The dependency
    state is the walk's — fresh, or a copy of ``shared['dep_in']``
    ``(skip, present, data)`` — cut into and written back between steps.
    Results gain ``dep_vertices``, and keep ``broke`` and ``carried``
    only for a parent that passed the state in."""
    p = len(columns[0]["dep_at"]) - 1
    store = DepStore(ctx.num_vertices, shared["carried"])
    dep_in = shared["dep_in"]
    if dep_in is not None:
        skip, present, data = dep_in
        store.skip[:] = skip
        for name in store.data:
            store.present[name][:] = present[name]
            store.data[name][:] = data[name]
    run, phase = shared["scan"]
    walked: List[List[Dict[str, Any]]] = [[] for _ in columns]
    for s in range(*shared["steps"]):
        at = sorted(
            range(len(columns)), key=lambda i: (columns[i]["j"] - s - 1) % p
        )
        items = []
        for i in at:
            dep = lane_at(columns[i], "dep", s)
            dep = dep[~store.skip[dep]]
            items.append({
                "m": (columns[i]["j"] - s - 1) % p,
                "dep": dep,
                "carried": {
                    name: (store.present[name][dep], values[dep])
                    for name, values in store.data.items()
                } if store.data else None,
                "plain": lane_at(columns[i], "plain", s),
            })
        results = pull_units(
            ctx, {**shared, "scan": (run, phase, s), "is_last": s == p - 1},
            items,
        )
        write_back(store, [item["dep"] for item in items], results)
        for i, item, res in zip(at, items, results):
            res["dep_vertices"] = int(item["dep"].size)
            if dep_in is None:
                del res["broke"], res["carried"]
            walked[i].append(res)
    return walked


def pull_column(ctx: WorkerContext, shared, column) -> List[Dict[str, Any]]:
    """One column's walk: :func:`pull_walk` of a chunk of one."""
    return pull_walk(ctx, shared, [column])[0]


pull_column.chunk = pull_walk


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

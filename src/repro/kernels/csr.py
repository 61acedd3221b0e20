"""Vectorized CSR kernels for the classified UDF shapes.

Each kernel replays what the per-vertex interpreter would have done for
a whole batch of destination vertices at once, operating on flattened
CSR neighbor segments.  Two invariants are load-bearing:

* **Bit-identical results.** Emit masks, emitted values, and carried
  values must equal the interpreter's, including float semantics: the
  ``full_scan_sum`` kernel therefore accumulates with ``np.add.at``
  (unbuffered, in index order: left-to-right per segment, exactly the
  interpreter's ``+=`` sequence) instead of ``np.add.reduceat``, whose
  pairwise summation would round differently.  Min folds and boolean
  predicates are order-independent, so those use ``reduceat`` directly.
* **Bit-identical counters.** ``KernelBatch.edges`` reports how many
  neighbors the interpreter would have *scanned* — up to and including
  the breaking neighbor — so the engines' edge/byte accounting does not
  change when the fast path is on.

All kernels accept ``carried_in=(present, values)`` to restore
loop-carried state forwarded by the circulant schedule; ``values``
arrive, and ``KernelBatch.carried`` leaves, in the fold's own dtype
(:func:`fold_dtype`, which the :class:`~repro.engine.dep.DepStore`
allocates), so a restored fold emits what a fresh one does.  They also
accept ``tables``: ``{role: per-vertex array}`` for the per-edge roles
whose value is the neighbour's alone
(:attr:`~repro.analysis.kernelspec.KernelSpec.vertex_roles`), which the
kernel gathers per edge (``table[flat]``) instead of evaluating the
role over every edge.  The caller builds them against the state the
call scans (:func:`repro.exec.work.vertex_tables`); an expression is
elementwise, so the gather is the per-edge value bit for bit.

**One call, several machines.**  The ``local`` a kernel scans is one
:class:`~repro.partition.base.LocalAdjacency` or a :class:`ScanBlock`:
the ``(adjacency, vertex)`` segments of consecutive work units of one
lane of a pull walk, concatenated in unit order
(:class:`repro.exec.work.LanePlan` builds them, up to a fixed edge
budget).  A block flattens its segments the first time a kernel reads
them — one offset pass over all of them, one gather per run of one
machine's vertices out of its own ``indices``, no copy of the topology
— and keeps the result: what it flattens depends on the topology and
the vertex sets only, never on the state, so the executing context
keeps a block whose sets recur between consecutive pull phases and the
next call pays for arithmetic alone.  A break kernel need not read it
at all: ``first_match_break`` probes each segment's first neighbor
(one gather per run) and flattens only the segments the probe left
open, less that neighbor — a tail block that depends on the state, so
it lives for the call.  The parts only some kernels read (the per-edge
segment id, the per-edge destination) are built on first use too.  A
kernel decides nothing per *call* that a unit could tell from its own call —
a fold's dtype is the spec's over the state, restored or not — and the
results are per vertex, so slicing a block's arrays at the unit offsets
gives each unit the arrays of its solo call, dtype and bytes.

Aliasing contract with the process executor: under the process backend
the :class:`~repro.engine.state.StateStore` arrays a kernel reads are
*adopted* shared-memory views aliased between the parent and every
worker.  Kernels (and the tasks that call them) must treat them as
read-only — all state mutation happens in the parent's merge step via
the store's own arrays (``s.field[...] = ...``), which writes through
to the shared pages in place.  Kernels never copy state arrays, so the
fast path operates directly on the arena views with no per-map
publication.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.kernelspec import (
    COUNT_TO_K_BREAK,
    FIRST_MATCH_BREAK,
    FULL_SCAN_MIN,
    FULL_SCAN_SUM,
    KernelSpec,
)
from repro.kernels.registry import KernelBatch, register_kernel

__all__ = [
    "ScanBlock",
    "empty_batch",
    "fold_dtype",
    "guarded_emit_scan",
    "first_match_break_kernel",
    "count_to_k_break_kernel",
    "full_scan_sum_kernel",
    "full_scan_min_kernel",
]

CarriedIn = Optional[Tuple[np.ndarray, np.ndarray]]
Tables = Optional[Dict[str, np.ndarray]]

#: the edge total up to which ``first_match_break`` scans a call whole,
#: without probing its segments' first neighbors (``work._BLOCK_EDGES``
#: has the readings)
_PROBE_EDGES = 8192


class ScanBlock:
    """The segments of one kernel call and their scan plan.

    ``starts`` / ``lens`` give, per vertex of the call, where its
    neighbor segment starts in its machine's ``indices`` and how long
    it is (callers guarantee nonzero); ``runs`` is one ``(local, a, b)``
    per run of consecutive vertices ``a:b`` on one machine, in order.
    ``seg_start`` / ``seg_end`` are each segment's bounds in the flat
    arrays and ``total`` their length.  Nothing edge-sized is built up
    front: :attr:`flat` (the concatenated neighbor ids, in scan order),
    :attr:`seg_ids` and :meth:`dest` are built on first read and kept,
    so a break kernel that settles a row at its first neighbor
    (:meth:`heads`) never flattens it.  Everything here is a function
    of the topology and the vertex sets alone, which is what lets a
    context keep a block across phases.
    """

    __slots__ = ("starts", "lens", "seg_start", "seg_end", "total", "runs",
                 "_flat", "_seg_ids", "_dest")

    def __init__(self, starts, lens, runs) -> None:
        self.starts = starts
        self.lens = lens = lens.astype(np.int64, copy=False)
        bounds = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=bounds[1:])
        self.seg_start, self.seg_end = bounds[:-1], bounds[1:]
        self.total = int(bounds[-1])
        self.runs = runs
        self._flat: Optional[np.ndarray] = None
        self._seg_ids: Optional[np.ndarray] = None
        self._dest: Optional[np.ndarray] = None

    @classmethod
    def of(cls, local, vertices: np.ndarray) -> "ScanBlock":
        """The block of one unit: ``vertices``' segments in ``local``."""
        starts = local.indptr[vertices]
        lens = local.indptr[vertices + 1] - starts
        return cls(starts, lens, [(local, 0, vertices.size)])

    @property
    def flat(self) -> np.ndarray:
        """The neighbor ids of every segment end to end: one offset
        pass over all of them, one gather per run out of its machine's
        own ``indices`` into its slice — no copy of the topology."""
        if self._flat is None:
            seg_start, seg_end = self.seg_start, self.seg_end
            # each flat element's index into its own machine's ``indices``
            index = np.repeat(self.starts - seg_start, self.lens)
            index += np.arange(self.total, dtype=np.int64)
            self._flat = self._take(index, [
                (seg_start[a], seg_end[b - 1]) for _, a, b in self.runs
            ])
        return self._flat

    def heads(self) -> np.ndarray:
        """Each segment's first neighbor id: one gather per run."""
        return self._take(self.starts, [(a, b) for _, a, b in self.runs])

    def _take(self, index: np.ndarray, bounds) -> np.ndarray:
        """``indices[index[lo:hi]]`` of each run's machine, for the
        run's ``(lo, hi)`` in ``bounds``, end to end as int64."""
        out = np.empty(index.size, dtype=self.runs[0][0].indices.dtype)
        for (local, _, _), (lo, hi) in zip(self.runs, bounds):
            np.take(local.indices, index[lo:hi], out=out[lo:hi], mode="clip")
        return out.astype(np.int64, copy=False)

    def tail(self, rows: np.ndarray) -> "ScanBlock":
        """The block of segments ``rows`` (ascending, each longer than
        one edge) without their first neighbor."""
        cuts = np.searchsorted(
            rows, [a for _, a, _ in self.runs] + [self.lens.size]
        ).tolist()
        return ScanBlock(self.starts[rows] + 1, self.lens[rows] - 1, [
            (local, a, b)
            for (local, _, _), a, b in zip(self.runs, cuts, cuts[1:])
            if b > a
        ])

    @property
    def seg_ids(self) -> np.ndarray:
        """Each flat element's segment (its row in the call)."""
        if self._seg_ids is None:
            self._seg_ids = np.repeat(
                np.arange(self.lens.size, dtype=np.int64), self.lens
            )
        return self._seg_ids

    def dest(self, vertices: np.ndarray) -> np.ndarray:
        """Each flat element's destination vertex."""
        if self._dest is None:
            self._dest = np.repeat(vertices, self.lens)
        return self._dest

    @property
    def nbytes(self) -> int:
        return sum(
            array.nbytes
            # ``seg_end`` shares ``seg_start``'s buffer
            for array in (self.starts, self.lens, self.seg_start,
                          self._flat, self._seg_ids, self._dest)
            if array is not None
        )


def _segments(local, vertices: np.ndarray) -> ScanBlock:
    """The neighbor segments of ``vertices``: ``local`` itself when it
    is already a block, the one-unit block over it otherwise."""
    if isinstance(local, ScanBlock):
        return local
    return ScanBlock.of(local, vertices)


def _edge_eval(
    spec, role: str, state, nbrs: np.ndarray, dest, tables: Tables,
    as_bool: bool = False,
) -> np.ndarray:
    """A per-edge expression over the neighbor ids ``nbrs``: gathered
    from the role's per-vertex table where the caller built one,
    evaluated per edge otherwise — ``dest()``, the per-edge destination,
    built only for an expression that reads it."""
    table = None if tables is None else tables.get(role)
    if table is not None:
        out = table[nbrs]
        return out.astype(bool, copy=False) if as_bool else out
    reads_dest = "__v" in spec.sources[role]
    return _flat_eval(
        spec.exprs[role], state, nbrs, dest() if reads_dest else None,
        nbrs.shape, as_bool=as_bool,
    )


def _first_hit(plan: ScanBlock, hits: np.ndarray):
    """``(matched, first)`` per segment: does it hold a set element of
    the per-edge mask ``hits``, and at which flat index is the first —
    a binary search of each segment's start among the set positions,
    so nothing edge-sized is built beyond the mask itself."""
    where = np.flatnonzero(hits)
    first = np.append(where, hits.size)[
        np.searchsorted(where, plan.seg_start)
    ]
    return first < plan.seg_end, first


def _flat_eval(fn, state, u, v, shape, as_bool: bool = False) -> np.ndarray:
    """Evaluate a compiled expression and broadcast it to ``shape``.

    ``as_bool`` converts with NumPy truthiness (nonzero → True), the
    vector analogue of the interpreter's ``if <expr>:``.
    """
    out = np.asarray(fn(state, u, v))
    if as_bool:
        out = out.astype(bool, copy=False)
    return np.broadcast_to(out, shape)


def guarded_emit_scan(spec, state, local, vertices: np.ndarray):
    """The push phase's unit: one flat pass over the out-edges of
    ``vertices`` for a :class:`~repro.analysis.pushspec.PushSpec`.

    Returns ``(edges, emit_u, emit_v, values)``: how many edges were
    scanned, and for each edge the guard let through its source, its
    destination and the value it emits, as parallel arrays.  The
    flattened order is the per-edge loop's scan order — ascending
    vertex, neighbor order within a vertex — so the emits come back in
    the order the loop appends them.

    Called directly by :func:`repro.exec.work.push_task`, not through
    the kernel registry: it returns per-edge emits, not a per-vertex
    :class:`KernelBatch`, and one shape needs no table.
    """
    plan = _segments(local, vertices)
    emit_v = plan.flat
    edges = emit_v.size
    emit_u = plan.dest(vertices)
    guard = spec.exprs.get("guard")
    if guard is not None:
        keep = ~_flat_eval(
            guard, state, emit_u, emit_v, emit_v.shape, as_bool=True
        )
        emit_u, emit_v = emit_u[keep], emit_v[keep]
    # like the loop, the value is evaluated where the guard let the
    # edge through and nowhere else
    values = np.array(
        _flat_eval(spec.exprs["value"], state, emit_u, emit_v, emit_v.shape)
    )
    return edges, emit_u, emit_v, values


def _per_vertex_eval(fn, state, vertices: np.ndarray) -> np.ndarray:
    """Evaluate a loop-invariant expression once per destination vertex."""
    out = np.asarray(fn(state, None, vertices))
    return np.broadcast_to(out, vertices.shape)


def fold_dtype(spec, state) -> np.dtype:
    """The dtype a carried fold of ``spec`` runs in over ``state``:
    what its running value takes from the init and, for the count, the
    ``int64`` (or float init's) increments, for the sum and the min the
    term — the dtype a kernel's fold has with nothing restored."""
    none = np.zeros(0, dtype=np.int64)
    init = np.asarray(spec.exprs["init"](state, None, none)).dtype
    if spec.kind == COUNT_TO_K_BREAK:
        step = init if init.kind == "f" else np.dtype(np.int64)
    else:
        step = np.asarray(spec.exprs["term"](state, none, none)).dtype
    return np.result_type(step, init)


def _fold_start(spec, state, vertices: np.ndarray, carried_in: CarriedIn):
    """``(init, start)`` of a carried fold: the UDF's initial value per
    vertex, and what each vertex resumes from — in the restored values'
    dtype when there are any, which is the fold's (:func:`fold_dtype`),
    so the fold's result has one dtype whatever was restored."""
    init = _per_vertex_eval(spec.exprs["init"], state, vertices)
    if carried_in is None:
        return init, np.array(init)
    present, restored = carried_in
    start = init.astype(restored.dtype)
    start[present] = restored[present]
    return init, start


def empty_batch() -> KernelBatch:
    """What every kernel returns for no vertices."""
    zero = np.zeros(0, dtype=np.int64)
    return KernelBatch(
        edges=zero,
        emit_mask=np.zeros(0, dtype=bool),
        values=zero,
        broke=np.zeros(0, dtype=bool),
        carried=np.zeros(0, dtype=np.float64),
    )


def _scan_to_first(spec, state, plan: ScanBlock, vertices, tables: Tables):
    """``(broke, edges, nbr)`` per segment of ``plan``, scanned to its
    first predicate hit (:func:`_first_hit`) or, with none, its end:
    did it hit, how many edges it scanned, and the neighbor it stopped
    at."""
    flat = plan.flat
    pred = _edge_eval(spec, "predicate", state, flat,
                      lambda: plan.dest(vertices), tables, as_bool=True)
    matched, first = _first_hit(plan, pred)
    last = np.where(matched, first, plan.seg_end - 1)
    return matched, last - plan.seg_start + 1, flat[last]


@register_kernel(FIRST_MATCH_BREAK)
def first_match_break_kernel(
    spec: KernelSpec, state, local, vertices, carried_in: CarriedIn = None,
    tables: Tables = None,
) -> KernelBatch:
    """Per-segment first match: emit once at the first predicate hit.

    The predicate is probed at every segment's first neighbor
    (:meth:`ScanBlock.heads`, one gather per run); only the segments
    that missed there and hold more are flattened, less that neighbor
    (:meth:`ScanBlock.tail`), and scanned to their first hit
    (:func:`_scan_to_first`).  A call of at most ``_PROBE_EDGES`` edges
    is scanned whole instead: there the probe's fixed NumPy calls cost
    more than the edges it skips.  A vertex with no hit scans its whole
    segment.  No loop-carried data: the only dependency is the break
    bit itself.
    """
    if vertices.size == 0:
        return empty_batch()
    plan = _segments(local, vertices)
    if plan.total <= _PROBE_EDGES:
        broke, edges, nbr = _scan_to_first(spec, state, plan, vertices,
                                           tables)
    else:
        nbr = plan.heads()
        hit = _edge_eval(spec, "predicate", state, nbr, lambda: vertices,
                         tables, as_bool=True)
        broke = np.array(hit)
        edges = np.where(hit, 1, plan.lens)
        rows = np.flatnonzero(edges > 1)  # missed, and more to scan
        if rows.size:
            broke[rows], scanned, nbr[rows] = _scan_to_first(
                spec, state, plan.tail(rows), vertices[rows], tables
            )
            edges[rows] = scanned + 1
    values = np.array(_flat_eval(
        spec.exprs["emit"], state, nbr, vertices, vertices.shape
    ))
    return KernelBatch(
        edges=edges,
        emit_mask=broke.copy(),
        values=values,
        broke=broke,
    )


@register_kernel(COUNT_TO_K_BREAK)
def count_to_k_break_kernel(
    spec: KernelSpec, state, local, vertices, carried_in: CarriedIn = None,
    tables: Tables = None,
) -> KernelBatch:
    """Running predicate count saturating at a threshold.

    Per segment, its hits (the set positions of the flat predicate) and
    the count they take it to: the ``i``-th hit runs it to ``start +
    i``, so the breaking hit is the smallest ``i >= 1`` whose count
    reaches the threshold, found per segment, not per edge; edges
    scanned and the final count follow from it.
    """
    if vertices.size == 0:
        return empty_batch()
    plan = _segments(local, vertices)
    lens, seg_start = plan.lens, plan.seg_start
    pred = _edge_eval(spec, "predicate", state, plan.flat,
                      lambda: plan.dest(vertices), tables, as_bool=True)
    _, start = _fold_start(spec, state, vertices, carried_in)
    threshold = _per_vertex_eval(spec.exprs["threshold"], state, vertices)
    where = np.flatnonzero(pred)
    hits = np.add.reduceat(pred, seg_start, dtype=np.int64)
    lo = np.cumsum(hits) - hits
    step = start.dtype if start.dtype.kind == "f" else np.dtype(np.int64)

    # The count after the i-th hit is ``i + start`` in the running
    # dtype the per-edge loop has, compared with the threshold as the
    # loop compares.  The comparison only turns true as ``i`` grows, so
    # the breaking hit is the first true one among the three around
    # ``ceil(threshold - start)``.  There is no running sum across
    # segments, so exactness is per segment: while its ``start`` plus
    # its degree stays inside the integer range of the running dtype
    # (2**24 for a float32 init, 2**53 for float64 or int64), rounding
    # the sum or the difference moves the answer by at most one hit.
    # NaN reads as 1: a NaN count or threshold compares false at every
    # hit, and ``inf`` against ``inf`` true at the first.
    near = np.fmin(np.fmax(np.ceil(
        threshold.astype(np.float64) - start.astype(np.float64)
    ), 1), hits + 1).astype(np.int64)
    tries = near + np.array([[-1], [0], [1]])
    ok = (tries.astype(step) + start) >= threshold
    # the first true try: ``near - 1`` plus the false ones, at least 1
    need = np.maximum(near + 2 - ok.sum(axis=0), 1)
    broke = ok[2] & (need <= hits)
    count = np.where(broke, need, hits)
    # the breaking hit's flat index (clipped where no segment breaks)
    at = where.take(lo + count - 1, mode="clip") if where.size else lo
    edges = np.where(broke, at - seg_start + 1, lens)
    final = count.astype(step) + start
    emit_mask = final > start
    values = final - start
    return KernelBatch(
        edges=edges,
        emit_mask=emit_mask,
        values=values,
        broke=broke,
        carried=final,
    )


@register_kernel(FULL_SCAN_SUM)
def full_scan_sum_kernel(
    spec: KernelSpec, state, local, vertices, carried_in: CarriedIn = None,
    tables: Tables = None,
) -> KernelBatch:
    """Full-scan sum fold, accumulated in the interpreter's add order.

    One ``np.add.at`` over the flattened terms: unbuffered and in index
    order, so every segment is summed left to right — the interpreter's
    ``+=`` sequence, hence bit-identical float rounding, unlike
    pairwise ``reduceat``.
    """
    if vertices.size == 0:
        return empty_batch()
    plan = _segments(local, vertices)
    term = _edge_eval(spec, "term", state, plan.flat,
                      lambda: plan.dest(vertices), tables)
    _, start = _fold_start(spec, state, vertices, carried_in)

    totals = start.astype(np.result_type(start.dtype, term.dtype))
    np.add.at(totals, plan.seg_ids, term)

    emit_mask = totals > start
    values = totals - start
    return KernelBatch(
        edges=plan.lens,
        emit_mask=emit_mask,
        values=values,
        broke=None,
        carried=totals,
    )


@register_kernel(FULL_SCAN_MIN)
def full_scan_min_kernel(
    spec: KernelSpec, state, local, vertices, carried_in: CarriedIn = None,
    tables: Tables = None,
) -> KernelBatch:
    """Full-scan minimum fold (order-independent, so ``reduceat`` is safe)."""
    if vertices.size == 0:
        return empty_batch()
    plan = _segments(local, vertices)
    term = _edge_eval(spec, "term", state, plan.flat,
                      lambda: plan.dest(vertices), tables)
    init, start = _fold_start(spec, state, vertices, carried_in)
    best = np.minimum(start, np.minimum.reduceat(term, plan.seg_start))
    emit_mask = best < init
    return KernelBatch(
        edges=plan.lens,
        emit_mask=emit_mask,
        values=best,
        broke=None,
        carried=best,
    )

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
budget).  A block flattens its segments once — one offset pass over all
of them, one gather per run of one machine's vertices out of its own
``indices``, no copy of the topology — and what it
flattens depends on the topology and the vertex sets only, never on the
state, so the executing context keeps a block whose sets recur between
consecutive pull phases and the next call pays for arithmetic alone.
The parts only some kernels read (the per-edge segment id, the per-edge
destination) are built on first use and kept with the block.  A kernel
decides nothing per *call* that a unit could tell from its own call —
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


class ScanBlock:
    """The segments of one kernel call and their scan plan.

    ``starts`` / ``lens`` give, per vertex of the call, where its
    neighbor segment starts in its machine's ``indices`` and how long
    it is (callers guarantee nonzero); ``runs`` is one ``(local, a, b)``
    per run of consecutive vertices ``a:b`` on one machine, in order.
    The plan is ``lens`` / ``seg_start`` (each segment's length and its
    offset into the flat arrays) and ``flat`` (the concatenated
    neighbor ids, in scan order); :attr:`seg_ids` and :meth:`dest` are
    the per-edge arrays only some kernels read, built on first use.
    Everything here is a function of the topology and the vertex sets
    alone, which is what lets a context keep a block across phases.
    """

    __slots__ = ("lens", "seg_start", "flat", "_seg_ids", "_dest")

    def __init__(self, starts, lens, runs) -> None:
        self.lens = lens = lens.astype(np.int64, copy=False)
        self.seg_start = seg_start = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=seg_start[1:])
        total = int(seg_start[-1])
        # each flat element's index into its own machine's ``indices``
        index = np.repeat(starts - seg_start[:-1], lens)
        index += np.arange(total, dtype=np.int64)
        # one gather per run, out of that machine's array into its
        # slice of the block: no stacked copy of the topology
        flat = np.empty(total, dtype=runs[0][0].indices.dtype)
        for local, a, b in runs:
            lo, hi = seg_start[a], seg_start[b]
            np.take(local.indices, index[lo:hi], out=flat[lo:hi], mode="clip")
        self.seg_start = seg_start[:-1]
        self.flat = flat.astype(np.int64, copy=False)
        self._seg_ids: Optional[np.ndarray] = None
        self._dest: Optional[np.ndarray] = None

    @classmethod
    def of(cls, local, vertices: np.ndarray) -> "ScanBlock":
        """The block of one unit: ``vertices``' segments in ``local``."""
        starts = local.indptr[vertices]
        lens = local.indptr[vertices + 1] - starts
        return cls(starts, lens, [(local, 0, vertices.size)])

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
            for array in (self.lens, self.seg_start, self.flat,
                          self._seg_ids, self._dest)
            if array is not None
        )


def _segments(local, vertices: np.ndarray) -> ScanBlock:
    """The flattened neighbor segments of ``vertices``: ``local`` itself
    when it is already a block, the one-unit block over it otherwise."""
    if isinstance(local, ScanBlock):
        return local
    return ScanBlock.of(local, vertices)


def _edge_eval(
    spec, role: str, state, plan: ScanBlock, vertices, tables: Tables,
    as_bool: bool = False,
) -> np.ndarray:
    """A per-edge expression over the flat neighbor ids: gathered from
    the role's per-vertex table where the caller built one, evaluated
    per edge otherwise — the per-edge destination built only for an
    expression that reads it."""
    table = None if tables is None else tables.get(role)
    if table is not None:
        out = table[plan.flat]
        return out.astype(bool, copy=False) if as_bool else out
    reads_dest = "__v" in spec.sources[role]
    return _flat_eval(
        spec.exprs[role], state, plan.flat,
        plan.dest(vertices) if reads_dest else None,
        plan.flat.shape, as_bool=as_bool,
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
    return first < plan.seg_start + plan.lens, first


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


@register_kernel(FIRST_MATCH_BREAK)
def first_match_break_kernel(
    spec: KernelSpec, state, local, vertices, carried_in: CarriedIn = None,
    tables: Tables = None,
) -> KernelBatch:
    """Per-segment first match: emit once at the first predicate hit.

    The first hit is each segment's first set element of the flat
    predicate mask (:func:`_first_hit`); a vertex with none scans its
    whole segment.  No loop-carried data: the only dependency is the
    break bit itself.
    """
    if vertices.size == 0:
        return empty_batch()
    plan = _segments(local, vertices)
    pred = _edge_eval(spec, "predicate", state, plan, vertices, tables,
                      as_bool=True)
    matched, first = _first_hit(plan, pred)
    # where the scan stopped: the first match, else the last neighbor
    last = np.where(matched, first, plan.seg_start + plan.lens - 1)
    values = np.array(_flat_eval(
        spec.exprs["emit"], state, plan.flat[last], vertices, vertices.shape
    ))
    return KernelBatch(
        edges=last - plan.seg_start + 1,
        emit_mask=matched.copy(),
        values=values,
        broke=matched,
    )


@register_kernel(COUNT_TO_K_BREAK)
def count_to_k_break_kernel(
    spec: KernelSpec, state, local, vertices, carried_in: CarriedIn = None,
    tables: Tables = None,
) -> KernelBatch:
    """Running predicate count saturating at a threshold.

    A within-segment cumulative sum of predicate hits locates the first
    position where the (restored) count reaches the threshold; edges
    scanned and the final count follow from that position.
    """
    if vertices.size == 0:
        return empty_batch()
    plan = _segments(local, vertices)
    lens, seg_start = plan.lens, plan.seg_start
    pred = _edge_eval(spec, "predicate", state, plan, vertices, tables,
                      as_bool=True)
    _, start = _fold_start(spec, state, vertices, carried_in)

    # One running sum over the whole call, rebased per segment: exact
    # only while the call's hit total stays inside the integer range of
    # ``inc``'s dtype (2**24 for a float32 init, 2**53 for float64).
    # One unit's call always had that limit; a block adds nothing to
    # it, because ``work._BLOCK_EDGES`` keeps a multi-unit call far
    # below 2**24 edges.
    inc = pred.astype(start.dtype if start.dtype.kind == "f" else np.int64)
    running = np.cumsum(inc)
    running -= np.repeat(running[seg_start] - inc[seg_start], lens)
    running = running + np.repeat(start, lens)

    threshold = _per_vertex_eval(spec.exprs["threshold"], state, vertices)
    sat = pred & (running >= np.repeat(threshold, lens))
    broke, first = _first_hit(plan, sat)
    last = np.where(broke, first, seg_start + lens - 1)
    edges = last - seg_start + 1
    final = running[last]
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
    term = _edge_eval(spec, "term", state, plan, vertices, tables)
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
    term = _edge_eval(spec, "term", state, plan, vertices, tables)
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

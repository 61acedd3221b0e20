"""Incremental partition refresh for mutated graphs.

When a :class:`~repro.graph.dynamic.DynamicGraph` applies a batch, the
session does not re-partition from scratch.  The master assignment is
*frozen* at the partition's original chunking (re-sharding on every
batch would defeat the warm shared-memory topology).  Under an edge
cut one direction of each machine's CSR — the out-rows of its masters
(outgoing cut) or their in-rows (incoming cut) — is a slice of the
snapshot, so every machine is re-sliced from the new snapshot
(:func:`~repro.partition.base.slice_view`: views, no copy).  The other
direction is patched, on the machines owning a mutated edge only, by
one :func:`~repro.graph.csr.splice_rows` each: the kill positions come
from the snapshot's own search (``graph.patch_kills``), mapped onto the
machines in one pass (:func:`_local_kills`), and no machine searches.
Every other machine keeps that direction's arrays and its ``indptr``,
and its rows of the dependency bitmaps (``_has_in`` / ``_has_out``,
the structures that gate mirror placement and dependency sync) are
carried over untouched.

That selective invalidation is the SympleGraph twist: under the
circulant schedule, machine ``m`` processes destination partition
``j = (m + s + 1) mod p`` at step ``s``, so a mutated edge ``(u, v)``
owned by machine ``m`` with ``master(v) = j`` dirties exactly the
schedule cell ``(m, (j - m - 1) mod p)``.  :func:`circulant_cells`
enumerates the dirty cells and :class:`RefreshStats` reports how much
of the ``p x p`` schedule survived.

Only the edge-cut families refresh incrementally (ownership is a pure
function of the frozen masters); other strategies raise
:class:`~repro.errors.PartitionError` and the caller rebuilds from
scratch on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph, sorted_unique, spans, splice_rows
from repro.graph.dynamic import MutationBatch
from repro.partition.base import (
    EDGE_CUT_KINDS, LocalAdjacency, Partition, slice_view,
)

__all__ = [
    "RefreshStats",
    "circulant_cells",
    "refresh_partition",
    "partition_with_masters",
]

@dataclass
class RefreshStats:
    """What one incremental partition refresh invalidated."""

    kind: str
    num_machines: int
    #: machines whose local adjacency was patched (or rebuilt)
    touched_machines: List[int]
    #: machines whose LocalAdjacency objects were reused as-is
    reused_machines: int
    #: dirty circulant cells ``(machine, step)``
    cells: List[Tuple[int, int]]
    #: added isolated vertices (column extension only)
    added_vertices: int

    @property
    def schedule_cells(self) -> int:
        return len(self.cells)

    @property
    def total_cells(self) -> int:
        return self.num_machines * self.num_machines


def circulant_cells(
    owners: np.ndarray, dst_masters: np.ndarray, num_machines: int
) -> List[Tuple[int, int]]:
    """Dirty ``(machine, step)`` schedule cells for mutated edges.

    ``owners[i]`` is the machine owning mutated edge i; ``dst_masters[i]``
    is the master machine of its destination.  Machine ``m`` reaches
    destination partition ``j`` at step ``s = (j - m - 1) mod p``
    (inverse of ``circulant_partition``).
    """
    if owners.size == 0:
        return []
    dirty = np.zeros((num_machines, num_machines), dtype=bool)
    dirty[owners, (dst_masters - owners - 1) % num_machines] = True
    return list(zip(*(axis.tolist() for axis in np.nonzero(dirty))))


def partition_with_masters(
    graph: CSRGraph,
    master_of: np.ndarray,
    kind: str,
    num_machines: int,
) -> Partition:
    """From-scratch partition under a *given* master assignment.

    The reference implementation an incremental refresh must match
    bit-for-bit (used by the metamorphic tests, and by callers that
    want to re-partition a mutated graph while keeping placement).
    """
    if kind not in EDGE_CUT_KINDS:
        raise PartitionError(
            f"partition kind {kind!r} has no master-preserving rebuild; "
            f"supported: {EDGE_CUT_KINDS}"
        )
    return Partition(graph, master_of, None, None, kind, num_machines)


def _extend_adjacency(adj: LocalAdjacency, added: int) -> LocalAdjacency:
    """Widen an untouched machine's CSR to cover appended vertices."""
    if added == 0:
        return adj
    indptr = np.concatenate([
        adj.indptr, np.full(added, adj.indptr[-1], dtype=np.int64),
    ])
    return LocalAdjacency(indptr, adj.indices, adj.weights)


def _local_kills(
    indptr: np.ndarray,
    indices: np.ndarray,
    kill: np.ndarray,
    master_of: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, machines, ranks)`` of the killed entries of one snapshot
    direction whose owner is the master of the entry's value.

    A machine's row lists the snapshot row's entries it owns, in order
    (the stable grouping by owner), so a killed entry sits at its row's
    local start plus ``rank``, the number of same-owner entries before
    it in the row: one read of the entries before each kill ranks them
    all.
    """
    rows = np.searchsorted(indptr, kill, "right") - 1
    owners = master_of[indices[kill]]
    lengths = kill - indptr[rows]
    before = master_of[indices[spans(indptr[rows], lengths)]]
    same = np.zeros(before.size + 1, dtype=np.int64)
    np.cumsum(before == np.repeat(owners, lengths), out=same[1:])
    ends = np.cumsum(lengths)
    return rows, owners, same[ends] - same[ends - lengths]


def _refresh_machines(
    old: Partition,
    graph: CSRGraph,
    master_of: np.ndarray,
    batch: MutationBatch,
    owners: np.ndarray,
    touched: np.ndarray,
) -> Partition:
    """``old`` over ``graph``: every machine's master side re-sliced,
    the other side spliced on touched machines and kept on the rest."""
    n, p, added = graph.num_vertices, old.num_machines, batch.add_vertices
    src = np.concatenate([batch.insert_src, batch.delete_src])
    dst = np.concatenate([batch.insert_dst, batch.delete_dst])
    # dependency bitmaps: every row carried over (column-extended for
    # appended vertices); a machine's can change only at the rows of
    # the batch edges it owns
    pad = np.zeros((p, added), dtype=bool)
    has_in = np.concatenate([old._has_in, pad], axis=1)
    has_out = np.concatenate([old._has_out, pad], axis=1)
    if old.kind == "outgoing-edge-cut":
        # masters hold their out-rows; in-rows are spliced
        indptr, indices, weights = (
            graph.out_indptr, graph.out_indices, graph.out_weights
        )
        old_master, old_other = old._local_out, old._local_in
        before, kill = old.graph.in_indptr, graph.patch_kills[1]
        values = old.graph.in_indices
        master_rows, other_rows = src, dst
        has_master, has_other = has_out, has_in
    else:
        indptr, indices, weights = (
            graph.in_indptr, graph.in_indices, graph.in_weights
        )
        old_master, old_other = old._local_in, old._local_out
        before, kill = old.graph.out_indptr, graph.patch_kills[0]
        values = old.graph.out_indices
        master_rows, other_rows = dst, src
        has_master, has_other = has_in, has_out
    kill_rows, kill_owner, rank = _local_kills(before, values, kill, master_of)
    # a master's side holds its whole row: one update for every machine
    has_master[owners, master_rows] = (
        indptr[master_rows + 1] > indptr[master_rows]
    )
    inserts = slice(0, batch.num_inserts)
    ins_owner, ins_w = owners[inserts], batch.insert_weights
    ins_rows, ins_vals = other_rows[inserts], master_rows[inserts]
    first = np.searchsorted(master_of, np.arange(p + 1))
    bounds = indptr[first].tolist()
    masters, others = [], []
    for m in range(p):
        lo, hi = bounds[m], bounds[m + 1]
        if m in touched:
            masters.append(slice_view(indptr, indices, weights, lo, hi))
            local = old_other[m]
            k, i = kill_owner == m, ins_owner == m
            w = None if ins_w is None else ins_w[i]
            local = LocalAdjacency(*splice_rows(
                local.indptr, local.indices, local.weights, n,
                local.indptr[kill_rows[k]] + rank[k],
                (ins_rows[i], ins_vals[i], w),
            ))
            rows = other_rows[owners == m]
            has_other[m, rows] = local.indptr[rows + 1] > local.indptr[rows]
            others.append(local)
        else:
            # same rows, new slice: its indptr stays
            kept = _extend_adjacency(old_master[m], added)
            view = LocalAdjacency(
                kept.indptr, indices[lo:hi],
                weights[lo:hi] if weights is not None else None,
            )
            view._degrees = kept._degrees
            masters.append(view)
            others.append(_extend_adjacency(old_other[m], added))
    part = Partition.__new__(Partition)
    part.graph = graph
    part.master_of = master_of
    part._in_edge_owner = part._out_edge_owner = None
    part.kind = old.kind
    part.num_machines = p
    part._has_in, part._has_out = has_in, has_out
    if old.kind == "outgoing-edge-cut":
        part._local_out, part._local_in = masters, others
    else:
        part._local_in, part._local_out = masters, others
    part._master_order, part._master_bounds = None, first
    return part


def refresh_partition(
    old: Partition, graph: CSRGraph, batch: MutationBatch
) -> Tuple[Partition, RefreshStats]:
    """Refresh ``old`` to cover ``graph`` after ``batch`` was applied.

    ``graph`` must be the post-batch snapshot of the graph ``old`` was
    built from.  Masters are frozen (appended vertices land on the last
    machine, matching ``chunk_of`` for out-of-range ids).  Every
    machine's master side is re-sliced from ``graph``; only machines
    owning a mutated edge splice their other side and recompute their
    dependency bitmap rows.  The result is bit-identical to
    :func:`partition_with_masters` on the same inputs.

    Refreshing needs ``graph``'s rows to be ``old.graph``'s plus the
    batch, which :meth:`~repro.graph.csr.CSRGraph.patch` records
    (``graph.patched_from``, ``graph.patch_kills``), and masters in id
    order, as every edge-cut partitioner places them (a machine's
    master rows are then one slice).  Any other graph — the first
    snapshot of a base built from an unsorted edge list is a full
    build — or masters scattered by :func:`partition_with_masters` have
    every machine rebuilt.
    """
    if old.kind not in EDGE_CUT_KINDS:
        raise PartitionError(
            f"partition kind {old.kind!r} does not support incremental "
            f"refresh; supported: {EDGE_CUT_KINDS}"
        )
    added = graph.num_vertices - old.graph.num_vertices
    if added != batch.add_vertices or added < 0:
        raise PartitionError(
            f"refresh expects the post-batch snapshot: vertex delta "
            f"{added} != batch.add_vertices {batch.add_vertices}"
        )
    p = old.num_machines
    master_of = old.master_of
    if added:
        master_of = np.concatenate([
            master_of, np.full(added, p - 1, dtype=np.int64),
        ])

    # which machine owns each mutated edge, under this strategy's rule
    if old.kind == "outgoing-edge-cut":
        ins_owner = master_of[batch.insert_src]
        del_owner = master_of[batch.delete_src]
    else:
        ins_owner = master_of[batch.insert_dst]
        del_owner = master_of[batch.delete_dst]
    owners = np.concatenate([ins_owner, del_owner])
    dst_masters = master_of[
        np.concatenate([batch.insert_dst, batch.delete_dst])
    ]
    cells = circulant_cells(owners, dst_masters, p)
    if graph.patched_from is old.graph and old._master_order is None:
        touched = sorted_unique(owners)
        part = _refresh_machines(
            old, graph, master_of, batch, owners, touched
        )
    else:
        touched = np.arange(p)
        part = partition_with_masters(graph, master_of, old.kind, p)

    stats = RefreshStats(
        kind=old.kind,
        num_machines=p,
        touched_machines=[int(m) for m in touched],
        reused_machines=p - touched.size,
        cells=cells,
        added_vertices=added,
    )
    return part, stats

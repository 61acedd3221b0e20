"""Compressed Sparse Row (CSR) graph container.

The container keeps both the forward (outgoing) and the reverse
(incoming) adjacency so that push-style engines can scan out-edges and
pull-style engines can scan in-edges without re-sorting.  All payloads
are NumPy arrays, which keeps the memory layout identical to the
Struct-of-Arrays organization the paper uses (Section 6).

Vertices are dense integers ``0 .. num_vertices-1``.  Edges may carry a
float weight (used by the graph-sampling algorithm); unweighted graphs
store no weight array.

Row order.  A graph built from an edge list lists each row in list
order, in both directions (two stable sorts of one list), so the copies
of a parallel pair ``(u, v)`` appear in the same relative order in
out-row ``u`` and in in-row ``v``.  :func:`splice_rows` keeps that
invariant: it removes every copy of a pair at once and appends inserts
in batch order, so a patched graph's rows are exactly those of a build
from "the old list, copies deleted, inserts appended".
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = [
    "CSRGraph", "as_vertex_array", "find_pairs", "is_integer", "match_pairs",
    "row_positions", "rows_sorted", "sorted_unique", "spans", "splice",
    "splice_rows", "split_pairs", "stable_order",
]


def is_integer(value: Any) -> bool:
    """True for an int or NumPy integer; a bool, float or string is
    not one (a vertex id is never truncated into range)."""
    return isinstance(value, (int, np.integer)) and not isinstance(
        value, bool
    )


def as_vertex_array(values: Any, name: str) -> np.ndarray:
    """``values`` as a 1-D int64 array of non-negative vertex ids (an
    int64 array is returned as is); anything else raises GraphError.
    An array is checked by dtype, a list id by id."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise GraphError(f"{name} must be a 1-D array of vertex ids")
    # a list is checked id by id: NumPy casts [1, True] to int64
    if arr.size and (arr.dtype.kind not in "iu" or not (
        isinstance(values, np.ndarray) or all(map(is_integer, values))
    )):
        raise GraphError(f"{name} must hold integer vertex ids")
    arr = arr.astype(np.int64, copy=False)
    if arr.size and arr.min() < 0:
        raise GraphError(f"{name} contains a negative vertex id")
    return arr


def split_pairs(edges: Iterable[Tuple[int, int]]) -> Tuple[List, List]:
    """``(sources, destinations)`` of an iterable of ``(src, dst)``
    pairs, as lists of the given ids."""
    pairs = [tuple(pair) for pair in edges]
    if any(len(pair) != 2 for pair in pairs):
        raise GraphError("edges must be (src, dst) pairs")
    return [u for u, _ in pairs], [v for _, v in pairs]


def spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] .. starts[i] + lengths[i] - 1`` of every
    span, back to back in listing order."""
    skip = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return np.arange(int(lengths.sum())) + skip


def row_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lengths, positions)``: each listed row's length and the index
    of every entry of those rows, back to back in listing order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    return lengths, spans(starts, lengths)


def match_pairs(
    cand_rows: np.ndarray,
    cand_vals: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Which candidate pairs are among the ``(rows[i], values[i])``.

    Returns ``(hits, pair)``: the ascending indices of the matching
    candidates and, for each, the first ``i`` naming its pair.  The
    candidates are binary-searched among the batch's sorted keys.
    """
    if not rows.size:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    width = max(int(values.max()), int(cand_vals.max(initial=0))) + 1
    uniq_rows, row_id = np.unique(rows, return_inverse=True)
    at_row = np.minimum(
        np.searchsorted(uniq_rows, cand_rows), uniq_rows.size - 1
    )
    # keys over the *compressed* row id stay below batch x width, far
    # from int64's range whatever the vertex count
    keys, first = np.unique(row_id * width + values, return_index=True)
    cand_keys = at_row * width + cand_vals
    at = np.minimum(np.searchsorted(keys, cand_keys), keys.size - 1)
    ok = (uniq_rows[at_row] == cand_rows) & (keys[at] == cand_keys)
    return np.flatnonzero(ok), first[at[ok]]


def find_pairs(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every CSR position holding one of the ``(rows[i], values[i])``
    pairs, ascending, as ``(positions, pair)`` (see :func:`match_pairs`).

    Each distinct named row is read once; rows past the CSR's last row
    hold nothing.  A table over the values (a square CSR's entries are
    row ids) culls the entries no pair names before any are matched.
    """
    num_rows = indptr.size - 1
    named = sorted_unique(rows[rows < num_rows])
    lengths, pos = row_positions(indptr, named)
    vals = indices[pos]
    width = max(num_rows, int(values.max(initial=0)) + 1)
    table = np.zeros(width, dtype=bool)
    table[values] = True
    maybe = np.flatnonzero(table[vals])
    cand_rows = named[np.searchsorted(np.cumsum(lengths), maybe, "right")]
    hits, pair = match_pairs(cand_rows, vals[maybe], rows, values)
    return pos[maybe[hits]], pair


#: entries :func:`splice` moves per step: the kept entries of a chunk
#: pass through a cache-sized buffer, not a second array of them all
SPLICE_CHUNK = 1 << 15


def splice(
    arr: np.ndarray, kill: np.ndarray, at: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``arr`` without the entries at the ascending positions ``kill``,
    with ``values[j]`` placed before old entry ``at[j]`` (``at``
    non-decreasing; equal positions keep the order of ``values``).

    One new array: the values are scattered to their slots, and every
    kept entry is written once, chunk by chunk, through the masks of
    kept entries and of old slots — a loop over fixed-size chunks, none
    over the kills and inserts.  An insert at a killed position lands
    where that entry was.  With nothing to kill or insert, ``arr``
    itself is returned.
    """
    if not kill.size and not at.size:
        return arr
    size = arr.size - kill.size + at.size
    keep = np.ones(arr.size, dtype=bool)
    keep[kill] = False
    # each insert moves back by the kills before it, on by the inserts
    slots = at - np.searchsorted(kill, at) + np.arange(at.size)
    old = np.ones(size, dtype=bool)
    old[slots] = False
    out = np.empty(size, dtype=arr.dtype)
    out[slots] = values
    # where each chunk of arr starts in out (the last takes end inserts)
    cuts = np.append(np.arange(0, arr.size, SPLICE_CHUNK), arr.size)
    starts = cuts - np.searchsorted(kill, cuts) + np.searchsorted(at, cuts)
    starts[-1] = size
    for a, b, lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist(),
                            starts[:-1].tolist(), starts[1:].tolist()):
        out[lo:hi][old[lo:hi]] = arr[a:b][keep[a:b]]
    return out


def splice_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: Optional[np.ndarray],
    num_rows: int,
    kill: np.ndarray,
    inserts: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Patch one CSR direction; returns new ``(indptr, indices, weights)``.

    ``kill``: the ascending positions of the entries to remove (a
    :func:`find_pairs` result, every copy of a pair).  ``inserts =
    (rows, values, weights)``: appended at the ends of their rows in
    batch order — each goes before its row's old end, rows in order.
    ``indptr`` grows to ``num_rows`` rows (appended rows start empty)
    through one cumulative delta; each array is written once
    (:func:`splice`).  The inputs are not written; an untouched array
    may be returned as is.
    """
    ins_rows, ins_vals, ins_w = inserts
    # rows that end at one position (empty rows between them) take
    # their inserts in row order: hand splice row-major batch order
    order = np.argsort(ins_rows, kind="stable")
    rows = ins_rows[order]
    # one cumulative delta: +1 after each insert's row, -1 after each
    # kill's, held over the runs of rows between changed ones
    kill_rows = np.searchsorted(indptr, kill, "right") - 1
    changed = np.concatenate([rows, kill_rows])
    by_row = np.argsort(changed, kind="stable")
    delta = np.zeros(changed.size + 1, dtype=np.int64)
    np.cumsum(np.where(by_row < rows.size, 1, -1), out=delta[1:])
    runs = np.diff(np.concatenate(([-1], changed[by_row], [num_rows])))
    out_indptr = np.empty(num_rows + 1, dtype=np.int64)
    out_indptr[: indptr.size] = indptr
    out_indptr[indptr.size:] = indptr[-1]
    out_indptr += np.repeat(delta, runs)
    at = indptr[np.minimum(rows + 1, indptr.size - 1)]
    indices = splice(indices, kill, at, ins_vals[order])
    if weights is not None:  # a pure-delete batch carries no weights
        w = ins_w[order] if ins_w is not None else np.empty(0)
        weights = splice(weights, kill, at, w)
    return out_indptr, indices, weights


def rows_sorted(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """True when every row lists its values in non-decreasing order."""
    if indices.size < 2:
        return True
    starts = np.zeros(indices.size, dtype=bool)
    starts[indptr[:-1][indptr[:-1] < indices.size]] = True
    drops = indices[1:] < indices[:-1]
    return not bool((drops & ~starts[1:]).any())


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a 1-D integer array: ``values`` itself
    when already strictly ascending, else one sort and an
    adjacent-difference mask.  NumPy's ``unique`` hashes int64 and
    reads ~10x slower (30 k elements: 4.2 against 0.32 ms)."""
    if not (values[1:] <= values[:-1]).any():
        return values
    out = np.sort(values)
    keep = np.empty(out.size, dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def stable_order(keys: np.ndarray) -> Optional[np.ndarray]:
    """``np.argsort(keys, kind="stable")`` for non-negative integer
    ``keys``, or None when they are already non-decreasing (the order
    is the identity).

    Keys below 256 (machine ids) take NumPy's stable sort of bytes, one
    radix pass.  Wider keys sort once, in place, as the distinct
    composites ``key << bits | position``, and keep the low ``bits``:
    NumPy's SIMD sort, several times quicker than the stable merge
    sort.  Keys whose composite would overflow int64 take the stable
    argsort.
    """
    if not (keys[1:] < keys[:-1]).any():
        return None
    size, top = keys.size, int(keys.max())
    if top < 256:
        return np.argsort(keys.astype(np.uint8), kind="stable")
    bits = (size - 1).bit_length()  # every position fits in bits
    if (top + 1) << bits > 2**63:
        return np.argsort(keys, kind="stable")
    composite = keys.astype(np.int64)
    composite <<= bits
    composite |= np.arange(size)
    composite.sort()
    composite &= (1 << bits) - 1
    return composite


def _build_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Group edges by ``src`` (stably) and build (indptr, indices,
    weights); the arrays are new, never the caller's."""
    order = stable_order(src)
    if order is None:
        sorted_dst = dst.copy()
        sorted_w = weights.copy() if weights is not None else None
    else:
        sorted_dst = dst[order]
        sorted_w = weights[order] if weights is not None else None
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, sorted_dst, sorted_w


class CSRGraph:
    """An immutable directed graph in CSR form.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices-1``.
    src, dst:
        Parallel arrays of edge endpoints (edge i is ``src[i] -> dst[i]``).
    weights:
        Optional parallel array of float edge weights.

    Use :meth:`from_edges` for validated construction from any iterable.
    """

    def __init__(
        self,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        src = as_vertex_array(src, "src")
        dst = as_vertex_array(dst, "dst")
        if src.shape != dst.shape:
            raise GraphError("src and dst must be 1-D arrays of equal length")
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        if src.size and src.max() >= num_vertices:
            raise GraphError("edge source out of range")
        if dst.size and dst.max() >= num_vertices:
            raise GraphError("edge destination out of range")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise GraphError("weights must parallel the edge arrays")

        self._num_vertices = int(num_vertices)
        self._num_edges = int(src.size)
        self.out_indptr, self.out_indices, self.out_weights = _build_csr(
            num_vertices, src, dst, weights
        )
        self.in_indptr, self.in_indices, self.in_weights = _build_csr(
            num_vertices, dst, src, weights
        )
        self._patched_from: Optional[weakref.ref] = None
        self.patch_kills: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_csr(
        cls,
        num_vertices: int,
        out_csr: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
        in_csr: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
    ) -> "CSRGraph":
        """Trusted constructor: adopt prebuilt ``(indptr, indices,
        weights)`` arrays for both directions as they are — no
        validation, no sort.  The caller guarantees they describe one
        edge multiset."""
        graph = cls.__new__(cls)
        graph._num_vertices = int(num_vertices)
        graph._num_edges = int(out_csr[1].size)
        graph.out_indptr, graph.out_indices, graph.out_weights = out_csr
        graph.in_indptr, graph.in_indices, graph.in_weights = in_csr
        graph._patched_from = graph.patch_kills = None
        return graph

    def patch(
        self,
        num_vertices: int,
        kills: Tuple[np.ndarray, np.ndarray],
        inserts: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
    ) -> "CSRGraph":
        """A new graph without the entries at ``kills = (out positions,
        in positions)`` — each a :func:`find_pairs` result over this
        graph — and with the ``(src, dst, weights)`` inserts appended,
        grown to ``num_vertices``: :func:`splice_rows` on both
        directions.  The result remembers this graph as
        :attr:`patched_from` and the positions as ``patch_kills``,
        which a partition refresh maps onto its machines."""
        (out_kill, in_kill), (ins_src, ins_dst, ins_w) = kills, inserts
        graph = CSRGraph.from_csr(
            num_vertices,
            splice_rows(
                self.out_indptr, self.out_indices, self.out_weights,
                num_vertices, out_kill, (ins_src, ins_dst, ins_w),
            ),
            splice_rows(
                self.in_indptr, self.in_indices, self.in_weights,
                num_vertices, in_kill, (ins_dst, ins_src, ins_w),
            ),
        )
        graph._patched_from = weakref.ref(self)
        graph.patch_kills = kills
        return graph

    @property
    def patched_from(self) -> Optional["CSRGraph"]:
        """The graph :meth:`patch` made this one from, while it is alive
        (None for a built graph)."""
        return None if self._patched_from is None else self._patched_from()

    def __getstate__(self):
        # a weak reference does not pickle; the copy has no patch parent
        return {**self.__dict__, "_patched_from": None, "patch_kills": None}

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        weights: Optional[Iterable[float]] = None,
    ) -> "CSRGraph":
        """Build a graph from an iterable of ``(src, dst)`` pairs."""
        src, dst = split_pairs(edges)
        w = None
        if weights is not None:
            w = np.asarray(list(weights), dtype=np.float64)
        return cls(num_vertices, src, dst, w)

    # -- basic properties ----------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def is_weighted(self) -> bool:
        return self.out_weights is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph(num_vertices={self._num_vertices}, "
            f"num_edges={self._num_edges}, weighted={self.is_weighted})"
        )

    # -- degrees --------------------------------------------------------

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees, indexed by vertex."""
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees, indexed by vertex."""
        return np.diff(self.in_indptr)

    def out_degree(self, v: int) -> int:
        """Number of outgoing edges of ``v``."""
        self._check_vertex(v)
        return int(self.out_indptr[v + 1] - self.out_indptr[v])

    def in_degree(self, v: int) -> int:
        """Number of incoming edges of ``v``."""
        self._check_vertex(v)
        return int(self.in_indptr[v + 1] - self.in_indptr[v])

    # -- adjacency -------------------------------------------------------

    def out_neighbors(self, v: int) -> np.ndarray:
        """Destinations of v's outgoing edges (a CSR slice; do not mutate)."""
        self._check_vertex(v)
        return self.out_indices[self.out_indptr[v] : self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of v's incoming edges (a CSR slice; do not mutate)."""
        self._check_vertex(v)
        return self.in_indices[self.in_indptr[v] : self.in_indptr[v + 1]]

    def out_edge_weights(self, v: int) -> np.ndarray:
        """Weights of v's outgoing edges, parallel to out_neighbors(v)."""
        if self.out_weights is None:
            raise GraphError("graph is unweighted")
        self._check_vertex(v)
        return self.out_weights[self.out_indptr[v] : self.out_indptr[v + 1]]

    def in_edge_weights(self, v: int) -> np.ndarray:
        """Weights of v's incoming edges, parallel to in_neighbors(v)."""
        if self.in_weights is None:
            raise GraphError("graph is unweighted")
        self._check_vertex(v)
        return self.in_weights[self.in_indptr[v] : self.in_indptr[v + 1]]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield every edge as a ``(src, dst)`` pair, grouped by source."""
        for v in range(self._num_vertices):
            for u in self.out_neighbors(v):
                yield v, int(u)

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays sorted by source."""
        src = np.repeat(np.arange(self._num_vertices), self.out_degrees())
        return src, self.out_indices.copy()

    def has_edge(self, u: int, v: int) -> bool:
        """True if the directed edge ``u -> v`` exists."""
        return bool(np.isin(v, self.out_neighbors(u)).any())

    # -- helpers ----------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._num_vertices:
            raise GraphError(
                f"vertex {v} out of range [0, {self._num_vertices})"
            )

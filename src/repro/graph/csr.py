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
out-row ``u`` and in in-row ``v``.  :func:`patch_rows` keeps that
invariant: it removes every copy of a pair at once and appends inserts
in batch order, so a patched graph's rows are exactly those of a build
from "the old list, copies deleted, inserts appended".
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = [
    "CSRGraph", "find_pairs", "match_pairs", "patch_rows", "row_positions",
    "rows_sorted",
]


def row_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lengths, positions)``: each listed row's length and the index
    of every entry of those rows, back to back in listing order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    skip = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return lengths, np.arange(int(lengths.sum())) + skip


def match_pairs(
    cand_rows: np.ndarray,
    cand_vals: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Which candidate pairs are among the ``(rows[i], values[i])``.

    Returns ``(hits, pair)``: the ascending indices of the matching
    candidates and, for each, the first ``i`` naming its pair.  A table
    over the values culls the candidates no pair names; the rest are
    binary-searched among the batch's sorted keys.
    """
    if not rows.size:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    width = max(int(values.max()), int(cand_vals.max(initial=0))) + 1
    named = np.zeros(width, dtype=bool)
    named[values] = True
    maybe = np.flatnonzero(named[cand_vals])
    cand_rows, cand_vals = cand_rows[maybe], cand_vals[maybe]
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
    return maybe[ok], first[at[ok]]


def find_pairs(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every CSR position holding one of the ``(rows[i], values[i])``
    pairs, as ``(positions, pair)`` (see :func:`match_pairs`).

    Each distinct named row is read once; rows past the CSR's last row
    hold nothing.
    """
    named = np.unique(rows[rows < indptr.size - 1])
    lens, pos = row_positions(indptr, named)
    hits, pair = match_pairs(
        np.repeat(named, lens), indices[pos], rows, values
    )
    return pos[hits], pair


def patch_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: Optional[np.ndarray],
    num_rows: int,
    deletes: Tuple[np.ndarray, np.ndarray],
    inserts: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Patch one CSR direction; returns new ``(indptr, indices, weights)``.

    ``deletes = (rows, values)``: every copy of each pair leaves its
    row, the rest keep their order.  ``inserts = (rows, values,
    weights)``: appended at the ends of their rows in batch order.
    ``indptr`` grows to ``num_rows`` rows (appended rows start empty).
    The inputs are not written.  Cost: a copy of the arrays for the
    deletes and one for the inserts, plus the deleted rows' lengths —
    no sort over the edges.
    """
    del_rows, del_vals = deletes
    ins_rows, ins_vals, ins_w = inserts
    grown = np.bincount(ins_rows, minlength=num_rows)
    if del_rows.size:
        kill, pair = find_pairs(indptr, indices, del_rows, del_vals)
        grown -= np.bincount(del_rows[pair], minlength=num_rows)
        indices = np.delete(indices, kill)
        if weights is not None:
            weights = np.delete(weights, kill)
    out_indptr = np.empty(num_rows + 1, dtype=np.int64)
    out_indptr[: indptr.size] = indptr
    out_indptr[indptr.size:] = indptr[-1]
    out_indptr[1:] += np.cumsum(grown)
    if ins_rows.size:
        # rows that end at one position (empty rows between them) take
        # their inserts in row order, and np.insert keeps the given
        # order among equal positions: hand it row-major batch order.
        # A row's end before its inserts = its new end minus the
        # inserts in rows up to it.
        order = np.argsort(ins_rows, kind="stable")
        rows = ins_rows[order]
        ends = out_indptr[rows + 1] - np.searchsorted(rows, rows, "right")
        indices = np.insert(indices, ends, ins_vals[order])
        if weights is not None:
            weights = np.insert(weights, ends, ins_w[order])
    return out_indptr, indices, weights


def rows_sorted(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """True when every row lists its values in non-decreasing order."""
    if indices.size < 2:
        return True
    starts = np.zeros(indices.size, dtype=bool)
    starts[indptr[:-1][indptr[:-1] < indices.size]] = True
    drops = indices[1:] < indices[:-1]
    return not bool((drops & ~starts[1:]).any())


def _build_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Sort edges by ``src`` and build (indptr, indices, weights)."""
    order = np.argsort(src, kind="stable")
    sorted_dst = dst[order]
    sorted_w = weights[order] if weights is not None else None
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, sorted_dst.astype(np.int64, copy=False), sorted_w


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
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphError("src and dst must be 1-D arrays of equal length")
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        if src.size and (src.min() < 0 or src.max() >= num_vertices):
            raise GraphError("edge source out of range")
        if dst.size and (dst.min() < 0 or dst.max() >= num_vertices):
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
        graph._patched_from = None
        return graph

    def patch(
        self,
        num_vertices: int,
        deletes: Tuple[np.ndarray, np.ndarray],
        inserts: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
    ) -> "CSRGraph":
        """A new graph with every copy of each deleted ``(src, dst)``
        pair removed and the ``(src, dst, weights)`` inserts appended,
        grown to ``num_vertices`` — :func:`patch_rows` on both
        directions.  The result remembers this graph as
        :attr:`patched_from`."""
        (del_src, del_dst), (ins_src, ins_dst, ins_w) = deletes, inserts
        graph = CSRGraph.from_csr(
            num_vertices,
            patch_rows(
                self.out_indptr, self.out_indices, self.out_weights,
                num_vertices, (del_src, del_dst), (ins_src, ins_dst, ins_w),
            ),
            patch_rows(
                self.in_indptr, self.in_indices, self.in_weights,
                num_vertices, (del_dst, del_src), (ins_dst, ins_src, ins_w),
            ),
        )
        graph._patched_from = weakref.ref(self)
        return graph

    @property
    def patched_from(self) -> Optional["CSRGraph"]:
        """The graph :meth:`patch` made this one from, while it is alive
        (None for a built graph)."""
        return None if self._patched_from is None else self._patched_from()

    def __getstate__(self):
        # a weak reference does not pickle; the copy has no patch parent
        return {**self.__dict__, "_patched_from": None}

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        weights: Optional[Iterable[float]] = None,
    ) -> "CSRGraph":
        """Build a graph from an iterable of ``(src, dst)`` pairs."""
        edge_list = list(edges)
        if edge_list:
            arr = np.asarray(edge_list, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise GraphError("edges must be (src, dst) pairs")
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
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

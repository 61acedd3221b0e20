"""Edge-list serialization.

A minimal text format compatible with the widely used SNAP/webgraph
edge-list conventions: one ``src dst [weight]`` triple per line, ``#``
comments ignored.  A compact NumPy ``.npz`` binary format is provided
for fast reload of generated benchmark graphs.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = [
    "save_edge_list",
    "load_edge_list",
    "save_npz",
    "load_npz",
    "save_metis",
    "load_metis",
]

PathLike = Union[str, os.PathLike]


def save_edge_list(graph: CSRGraph, path: PathLike) -> None:
    """Write ``src dst [weight]`` lines; weights included when present."""
    src, dst = graph.edge_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vertices {graph.num_vertices}\n")
        if graph.is_weighted:
            weights = graph.out_weights
            for s, d, w in zip(src, dst, weights):
                fh.write(f"{s} {d} {float(w)!r}\n")
        else:
            for s, d in zip(src, dst):
                fh.write(f"{s} {d}\n")


def load_edge_list(path: PathLike, num_vertices: int | None = None) -> CSRGraph:
    """Read an edge-list file.

    The vertex count is taken from a ``# vertices N`` header if present,
    from the ``num_vertices`` argument otherwise, falling back to
    ``max id + 1``.  A file that cannot be read, a line whose ids are
    not integers or whose weight is not a float (named as
    ``path:lineno``), and an id out of range all raise
    :class:`~repro.errors.GraphError`.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    weights: list[float] = []
    header_vertices = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    parts = line[1:].split()
                    if len(parts) == 2 and parts[0] == "vertices":
                        header_vertices = int(parts[1])
                    continue
                parts = line.split()
                if len(parts) not in (2, 3):
                    raise GraphError(
                        f"{path}:{lineno}: expected 2 or 3 fields"
                    )
                srcs.append(int(parts[0]))
                dsts.append(int(parts[1]))
                if len(parts) == 3:
                    weights.append(float(parts[2]))
    except OSError as exc:
        raise GraphError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise GraphError(f"{path}: not UTF-8 text") from None
    except ValueError:  # int() or float() of a bad token
        raise GraphError(
            f"{path}:{lineno}: expected integer ids and an optional float "
            f"weight, got {line!r}"
        ) from None
    if weights and len(weights) != len(srcs):
        raise GraphError("file mixes weighted and unweighted edges")
    n = num_vertices if num_vertices is not None else header_vertices
    if n is None:
        n = (max(max(srcs), max(dsts)) + 1) if srcs else 0
    return CSRGraph(
        n,
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(weights, dtype=np.float64) if weights else None,
    )


def save_metis(graph: CSRGraph, path: PathLike) -> None:
    """Write the METIS adjacency format (1-indexed, undirected).

    METIS represents undirected graphs: the graph must be symmetric and
    self-loop-free (METIS disallows both loops and duplicate entries);
    the edge count in the header is the number of undirected edges.
    """
    src, dst = graph.edge_array()
    if np.any(src == dst):
        raise GraphError("METIS format cannot represent self-loops")
    fwd = set(zip(src.tolist(), dst.tolist()))
    if any((v, u) not in fwd for u, v in fwd):
        raise GraphError("METIS format requires a symmetric graph")
    if len(fwd) != len(src):
        raise GraphError("METIS format cannot represent parallel edges")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_edges // 2}\n")
        for v in range(graph.num_vertices):
            neighbors = " ".join(
                str(int(u) + 1) for u in sorted(graph.out_neighbors(v))
            )
            fh.write(neighbors + "\n")


def load_metis(path: PathLike) -> CSRGraph:
    """Read a METIS adjacency file (unweighted, fmt=0)."""
    with open(path, "r", encoding="utf-8") as fh:
        # keep blank lines: an empty adjacency line is an isolated vertex
        lines = [
            line.rstrip("\n")
            for line in fh
            if not line.lstrip().startswith("%")
        ]
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise GraphError("empty METIS file")
    header = lines[0].split()
    if len(header) < 2:
        raise GraphError("METIS header needs vertex and edge counts")
    num_vertices, num_edges = int(header[0]), int(header[1])
    body = lines[1:]
    if len(body) > num_vertices:
        if any(line.strip() for line in body[num_vertices:]):
            raise GraphError(
                f"METIS file declares {num_vertices} vertices but has "
                f"{len(body)} adjacency lines"
            )
        body = body[:num_vertices]
    elif len(body) < num_vertices:
        # trailing isolated vertices may be represented by missing
        # blank lines at end-of-file
        body = body + [""] * (num_vertices - len(body))
    srcs: list[int] = []
    dsts: list[int] = []
    for v, line in enumerate(body):
        for token in line.split():
            u = int(token) - 1
            if not 0 <= u < num_vertices:
                raise GraphError(f"METIS neighbor {token} out of range")
            srcs.append(v)
            dsts.append(u)
    if len(srcs) != 2 * num_edges:
        raise GraphError(
            f"METIS header declares {num_edges} edges but the body "
            f"lists {len(srcs)} directed entries"
        )
    return CSRGraph(
        num_vertices,
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
    )


def save_npz(graph: CSRGraph, path: PathLike) -> None:
    """Save the graph to a compressed NumPy archive."""
    src, dst = graph.edge_array()
    payload = {
        "num_vertices": np.asarray([graph.num_vertices], dtype=np.int64),
        "src": src,
        "dst": dst,
    }
    if graph.is_weighted:
        payload["weights"] = graph.out_weights
    np.savez_compressed(path, **payload)


def load_npz(path: PathLike) -> CSRGraph:
    """Load a graph saved by :func:`save_npz`."""
    with np.load(path) as data:
        weights = data["weights"] if "weights" in data.files else None
        return CSRGraph(
            int(data["num_vertices"][0]), data["src"], data["dst"], weights
        )

#!/usr/bin/env python
"""DeepWalk-style random walks built on weighted neighbor sampling.

Graph sampling is the paper's Figure 3d workload: it powers graph
machine-learning pipelines (DeepWalk, node2vec, GCNs).  Each walk step
is one distributed sampling pass — the prefix-sum scan whose
loop-carried *data* dependency SympleGraph propagates as a float per
vertex.  This example generates walk corpora and shows the per-step
cost difference against the Gemini two-phase implementation.

Run:  python examples/random_walks.py
"""

import numpy as np

from repro.algorithms import sample_neighbors
from repro.engine import make_engine
from repro.graph import rmat, to_undirected, with_vertex_weights


def walk_corpus(engine_kind: str, graph, walk_length: int, seed: int):
    """One walk per vertex: each sampling pass advances every walker by
    one hop (a "pull" formulation of simultaneous random walks)."""
    weights = with_vertex_weights(graph.num_vertices, seed=seed)
    walks = [np.arange(graph.num_vertices)]
    edges = 0
    dep_bytes = 0
    total_bytes = 0
    for step in range(walk_length):
        engine = make_engine(engine_kind, graph, num_machines=8)
        result = sample_neighbors(engine, vertex_weights=weights, seed=seed + step)
        edges += engine.counters.edges_traversed
        dep_bytes += engine.counters.dep_bytes
        total_bytes += engine.counters.total_bytes
        # walker at v moves to the sampled in-neighbor (or stays put)
        current = walks[-1]
        nxt = result.select[current]
        nxt = np.where(nxt >= 0, nxt, current)
        walks.append(nxt)
    corpus = np.stack(walks, axis=1)
    return corpus, edges, dep_bytes, total_bytes


def main() -> None:
    graph = to_undirected(rmat(scale=10, edge_factor=16, seed=99))
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
    walk_length = 4

    for kind in ("gemini", "symple"):
        corpus, edges, dep, total = walk_corpus(kind, graph, walk_length, seed=5)
        print(
            f"{kind:>7}: corpus {corpus.shape[0]} walks x "
            f"{corpus.shape[1]} hops | edges scanned {edges:,} | "
            f"dep bytes {dep:,} | total bytes {total:,}"
        )

    print()
    print("SympleGraph scans a fraction of the edges (it stops at the")
    print("prefix-sum crossing) but ships a float of dependency state per")
    print("vertex per step — the one workload where its total traffic can")
    print("exceed Gemini's (paper Table 6).")

    # Show a couple of walks.
    corpus, *_ = walk_corpus("symple", graph, walk_length, seed=5)
    print()
    for v in (0, 1, 2):
        print(f"walk from {v}: {' -> '.join(map(str, corpus[v]))}")


if __name__ == "__main__":
    main()

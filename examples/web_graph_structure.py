#!/usr/bin/env python
"""Web-graph structure analysis: SCC bow-tie, coreness, and PageRank.

The classic web-graph pipeline (and the paper's SCC motivation for
K-core, Section 7.1): find the giant strongly connected component,
rank pages, and measure the engagement core — all on the simulated
distributed engines.

Run:  python examples/web_graph_structure.py
"""

import numpy as np

from repro.algorithms import coreness, pagerank, scc
from repro.engine import make_engine
from repro.graph import rmat, to_undirected


def main() -> None:
    # A directed web-like graph (links are one-way).
    web = rmat(scale=10, edge_factor=12, seed=71)
    print(f"web graph: {web.num_vertices} pages, {web.num_edges} links")

    # 1. Strongly connected components (FW-BW-Trim on two engines;
    #    reachability sweeps are dependency-accelerated bottom-up BFS).
    metrics = make_engine("gemini", web, 8)
    result = scc(web, engine_kind="symple", num_machines=8,
                 collect_metrics=metrics)
    sizes = np.bincount(
        np.unique(result.component, return_inverse=True)[1]
    )
    giant = int(sizes.max())
    print(
        f"SCCs: {result.num_components} components; giant SCC has "
        f"{giant} pages ({giant / web.num_vertices:.0%} of the web)"
    )
    print(
        f"  reachability work: {metrics.counters.edges_traversed:,} "
        f"edges scanned, {metrics.counters.total_bytes:,} bytes moved"
    )

    # 2. PageRank over the full link graph.
    engine = make_engine("symple", web, 8)
    ranks = pagerank(engine, iterations=15)
    top = np.argsort(ranks.rank)[-5:][::-1]
    print(f"top pages by rank: {top.tolist()}")

    # 3. Engagement cores on the symmetrized graph.
    core_numbers = coreness(to_undirected(web))
    print(
        f"coreness: max core {core_numbers.max()}, "
        f"{int((core_numbers >= 8).sum())} pages in the 8-core"
    )

    # Pages that are both high-rank and deep-core are the durable hubs.
    hubs = [int(v) for v in top if core_numbers[v] >= 8]
    print(f"high-rank deep-core hubs: {hubs}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Social-network analysis workload: community seeds via MIS and
engagement cores via K-core decomposition — the workloads the paper's
introduction motivates (social influence analysis, clustering).

Runs both on a Twitter-like graph (skewed core + long chain tail) on a
simulated 8-machine cluster and reports what SympleGraph's dependency
propagation saves.

Run:  python examples/social_network_analysis.py
"""

import numpy as np

from repro.algorithms import kcore, kcore_peel, mis
from repro.bench import format_table
from repro.engine import make_engine
from repro.graph import attach_chain, degree_summary, rmat, to_undirected


def build_social_graph():
    core = to_undirected(rmat(scale=11, edge_factor=24, seed=2024))
    return attach_chain(core, chain_length=64)


def main() -> None:
    graph = build_social_graph()
    stats = degree_summary(graph, "in")
    print(
        f"social graph: {graph.num_vertices} users, {graph.num_edges} "
        f"follow-edges, max degree {stats.maximum}, median {stats.median:.0f}"
    )

    rows = []
    for kind in ("gemini", "symple"):
        engine = make_engine(kind, graph, num_machines=8)
        seeds = mis(engine, seed=1)
        mis_metrics = engine.counters.summary()
        mis_time = engine.execution_time()

        engine = make_engine(kind, graph, num_machines=8)
        core = kcore(engine, k=8)
        core_time = engine.execution_time()
        rows.append(
            [
                kind,
                seeds.size,
                core.size,
                f"{mis_metrics['edges_traversed']:,}",
                f"{mis_time:,.0f}",
                f"{core_time:,.0f}",
            ]
        )

    print()
    print(
        format_table(
            "Community seeds (MIS) and 8-core, 8 simulated machines",
            ["engine", "seeds", "core", "MIS edges", "MIS time", "core time"],
            rows,
            note="identical outputs; SympleGraph does strictly less work",
        )
    )

    # The linear peel baseline the paper compares in Table 2/4: on
    # social graphs with chain structure it beats the iterative
    # algorithm outright.
    peel = kcore_peel(graph, 8)
    print()
    print(
        f"linear peel (single thread): core={peel.size}, "
        f"simulated time {peel.simulated_time:,.0f} — "
        "the paper's parenthesized comparison"
    )

    # Who are the influencers? Top-degree members of the 8-core.
    engine = make_engine("symple", graph, num_machines=8)
    core = kcore(engine, k=8)
    members = np.flatnonzero(core.in_core)
    top = members[np.argsort(graph.in_degrees()[members])[-5:]][::-1]
    print(f"top core influencers by degree: {top.tolist()}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Quickstart: run direction-optimizing BFS on a simulated 16-machine
cluster with SympleGraph's precise loop-carried dependency, and compare
against the Gemini baseline.

Run:  python examples/quickstart.py
"""

from repro.algorithms import bfs
from repro.algorithms.bfs import bottom_up_signal
from repro.analysis import explain_signal
from repro.engine import make_engine
from repro.graph import rmat, to_undirected


def main() -> None:
    # 1. Build a skewed Graph500-style graph (~4k vertices, ~100k edges).
    graph = to_undirected(rmat(scale=12, edge_factor=16, seed=7))
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")

    # 2. What does the SympleGraph analyzer see in the bottom-up BFS UDF?
    print()
    print(explain_signal(bottom_up_signal))

    # 3. Run BFS on both engines over the same 16-machine partition.
    print()
    results = {}
    for kind in ("gemini", "symple"):
        engine = make_engine(kind, graph, num_machines=16)
        result = bfs(engine, root=0)
        results[kind] = engine
        print(
            f"{kind:>7}: reached {result.reached} vertices in "
            f"{result.iterations} iterations "
            f"(directions: {' '.join(result.directions)})"
        )

    # 4. Compare the costs the paper's evaluation reports.
    gem, sym = results["gemini"].counters, results["symple"].counters
    print()
    print(f"edges traversed : gemini {gem.edges_traversed:,} -> "
          f"symple {sym.edges_traversed:,} "
          f"({sym.edges_traversed / gem.edges_traversed:.0%})")
    print(f"update bytes    : gemini {gem.update_bytes:,} -> "
          f"symple {sym.update_bytes:,}")
    print(f"dependency bytes: symple {sym.dep_bytes:,} "
          "(does not exist in Gemini)")
    t_gem = results["gemini"].execution_time()
    t_sym = results["symple"].execution_time()
    print(f"simulated time  : gemini {t_gem:,.0f} -> symple {t_sym:,.0f} "
          f"(speedup {t_gem / t_sym:.2f}x)")


if __name__ == "__main__":
    main()

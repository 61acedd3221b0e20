#!/usr/bin/env python
"""Writing a new dependency-aware algorithm two ways.

The paper offers two authoring paths (Section 4.3): write a plain
signal UDF with a ``break`` and let the analyzer instrument it, or
express the fold explicitly with the ``fold_while`` DSL.  This example
implements *threshold influence probing* — "does vertex v have at
least T active in-neighbors?" (a building block of influence
maximization) — both ways, and shows they run identically.

Run:  python examples/custom_algorithm_dsl.py
"""

import numpy as np

from repro.analysis import explain_signal, fold_while
from repro.engine import make_engine
from repro.graph import rmat, to_undirected

THRESHOLD = 5


# -- path 1: plain Python UDF; the analyzer finds `hits` + break -------

def influence_signal(v, nbrs, s, emit):
    hits = 0
    start = hits
    for u in nbrs:
        if s.active[u]:
            hits += 1
            if hits >= s.t:
                break
    if hits > start:
        emit(hits - start)


# -- path 2: the fold_while DSL ----------------------------------------

def influence_fold():
    return fold_while(
        initial=0,
        compose=lambda acc, u, v, s: acc + (1 if s.active[u] else 0),
        exit_when=lambda acc, u, v, s: acc >= s.t,
        on_exit=lambda acc, u, v, s, emit: emit(acc),
        on_finish=lambda acc, v, s, emit: emit(acc) if acc else None,
    )


def count_slot(v, value, s):
    s.count[v] += int(value)
    return False


def run(engine, signal, graph, seed=3):
    rng = np.random.default_rng(seed)
    s = engine.new_state()
    s.set("active", rng.random(graph.num_vertices) < 0.4)
    s.add_array("count", np.int64, 0)
    s.add_scalar("t", THRESHOLD)
    active_dst = graph.in_degrees() > 0
    engine.pull(signal, count_slot, s, active_dst, update_bytes=8,
                sync_bytes=0)
    return (s.count >= THRESHOLD), engine.counters.edges_traversed


def main() -> None:
    graph = to_undirected(rmat(scale=10, edge_factor=16, seed=17))
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
    print()
    print(explain_signal(influence_signal))
    print()

    results = {}
    for name, signal in (("udf", influence_signal), ("dsl", influence_fold())):
        for kind in ("gemini", "symple"):
            engine = make_engine(kind, graph, num_machines=8)
            influential, edges = run(engine, signal, graph)
            results[(name, kind)] = influential
            print(
                f"{name}/{kind:>7}: {int(influential.sum())} vertices have "
                f">= {THRESHOLD} active in-neighbors | edges scanned {edges:,}"
            )

    same = all(
        np.array_equal(results[("udf", "gemini")], r)
        for r in results.values()
    )
    print()
    print(f"all four runs agree: {same}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Visualize circulant scheduling and the double-buffering overlap.

Prints the Figure 7 machine x step matrix, then replays one MIS pull
iteration through the cost model's discrete-event recursion and shows
each machine's step timeline with and without double buffering — the
latency that Figure 9's optimization hides.

Run:  python examples/scheduling_timeline.py
"""

import numpy as np

from repro.algorithms import mis
from repro.engine import SympleGraphEngine, SympleOptions
from repro.engine.symple import render_schedule
from repro.graph import rmat, to_undirected
from repro.partition import OutgoingEdgeCut
from repro.runtime import CostModel

MACHINES = 4


def main() -> None:
    print("Circulant schedule (Figure 7): which partition each machine")
    print("processes at each step — columns and rows are permutations.\n")
    print(render_schedule(MACHINES))

    graph = to_undirected(rmat(scale=10, edge_factor=16, seed=33))
    engine = SympleGraphEngine(
        OutgoingEdgeCut().partition(graph, MACHINES),
        options=SympleOptions(degree_threshold=0),
    )
    mis(engine, seed=1)
    pull = next(
        rec
        for rec in engine.counters.iterations
        if rec.mode == "pull" and len(rec.steps) == MACHINES
    )

    # Exaggerate network latency so the overlap is visible.
    model = CostModel(latency=400.0)
    for db in (False, True):
        timeline = model.circulant_timeline(pull, double_buffering=db)
        label = "with" if db else "without"
        print(f"\nStep timeline {label} double buffering "
              f"(makespan {timeline.makespan:,.0f}):")
        for m in range(MACHINES):
            bars = "  ".join(
                f"s{s}:[{timeline.start[s, m]:7.0f} ->"
                f"{timeline.finish[s, m]:7.0f}]"
                for s in range(MACHINES)
            )
            print(f"  M{m}  {bars}")
        waits = timeline.wait_time()
        print(f"  idle time per machine: "
              f"{np.array2string(waits, precision=0)}")

    print()
    print("Double buffering ships each step's dependency in two halves,")
    print("so the receiver starts on group A while group B is still in")
    print("flight — the gaps between steps shrink (Figure 9).")


if __name__ == "__main__":
    main()

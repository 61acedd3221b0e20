"""Table 7: best-performing machine counts — D-Galois needs two orders
of magnitude more machines.

Paper (Stampede2): D-Galois reaches its best MIS time at 128 nodes;
SympleGraph matches or beats it with 2-4 nodes.  We sweep both systems
over machine counts and compare the optima.
"""

from __future__ import annotations

import pytest

from _shared import cached_run
from repro.bench import format_table
from repro.bench.report import emit

SYMPLE_SWEEP = (2, 4, 8, 16)
DGALOIS_SWEEP = (8, 16, 32, 64, 128)
GRAPHS = ("tw", "fr", "s27")


def build_table7():
    rows = []
    data = {}
    for ds in GRAPHS:
        dg_times = {
            p: cached_run("dgalois", ds, "mis", num_machines=p).simulated_time
            for p in DGALOIS_SWEEP
        }
        sym_times = {
            p: cached_run("symple", ds, "mis", num_machines=p).simulated_time
            for p in SYMPLE_SWEEP
        }
        dg_best = min(dg_times, key=dg_times.get)
        sym_best = min(sym_times, key=sym_times.get)
        data[ds] = (dg_times, dg_best, sym_times, sym_best)
        rows.append(
            [
                ds,
                f"{dg_times[dg_best]:,.0f} ({dg_best})",
                f"{sym_times[sym_best]:,.0f} ({sym_best})",
            ]
        )
    return rows, data


@pytest.mark.benchmark(group="table7")
def test_table7_best_node_counts(benchmark):
    rows, data = benchmark.pedantic(build_table7, rounds=1, iterations=1)
    text = format_table(
        "Table 7: MIS best time (best-performing machine count)",
        ["Graph", "D-Galois", "SympleGraph"],
        rows,
        note=(
            "paper: D-Galois best at 128 nodes, SympleGraph best at 2-4; "
            "a small SympleGraph cluster does the work of a large "
            "D-Galois allocation"
        ),
    )
    emit("table7", text)

    for ds in GRAPHS:
        dg_times, dg_best, sym_times, sym_best = data[ds]
        # D-Galois needs more machines to reach its optimum...
        assert dg_best >= 2 * sym_best
        # ...and even then a smaller SympleGraph cluster matches or
        # beats it (the paper's 4-node-vs-128-node headline, with the
        # gap compressed at simulation scale).
        assert sym_times[sym_best] <= dg_times[dg_best] * 1.1

"""Dynamic graphs: incremental recomputation vs from-scratch reruns.

Streams a schedule of mutation batches (symmetric edge inserts,
deletes of live edges, occasional vertex growth) into a long-lived
:class:`~repro.api.Session` and measures, per batch:

* ``Session.mutate`` itself — delta-overlay apply + incremental
  partition refresh (frozen masters, touched machines only);
* the incremental repair of BFS depths and CC labels
  (affected-subgraph reseeding) and, on deletion-only batches,
  incremental k-core peeling;
* the from-scratch baseline: a fresh session on the equivalent static
  snapshot recomputing the same answers.

The **metamorphic gate** is armed on every batch, not sampled: the
incremental digests must equal the from-scratch digests bit for bit,
and the run exits nonzero on the first mismatch.  ``--smoke`` is the
CI entry point: a small graph, a short schedule, gate on, and the
JSON report written for the artifact upload.

Writes ``benchmarks/results/BENCH_dynamic.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.api import RunConfig, Session
from repro.algorithms import (
    IncrementalBFS,
    IncrementalCC,
    IncrementalKCore,
)
from repro.graph.dynamic import DynamicGraph, MutationBatch
from repro.graph.generators import rmat
from repro.graph.transform import to_undirected
from repro.obs import ObsHub, Tracer, validate_events

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


# -- mutation stream ---------------------------------------------------------


def make_schedule(graph, num_batches, batch_size, grow_every, seed):
    """Symmetric mutation batches valid against ``graph``, in order.

    A shadow :class:`DynamicGraph` tracks the live edge set so deletes
    always name live pairs.  Each batch mixes inserts and deletes
    roughly 2:1 (streams grow in practice); every ``grow_every``-th
    batch also appends a vertex wired to a random existing one.
    """
    rng = np.random.default_rng(seed)
    shadow = DynamicGraph(graph, compact_min=10**9)
    batches = []
    for b in range(num_batches):
        n = shadow.num_vertices
        ins_pairs = []
        n_ins = max(1, (2 * batch_size) // 3)
        for _ in range(n_ins):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                v = (u + 1) % n
            ins_pairs += [(u, v), (v, u)]

        del_pairs = []
        n_del = batch_size - n_ins
        if n_del > 0:
            src, dst = shadow.snapshot().edge_array()
            candidates = np.flatnonzero(src < dst)  # one per direction pair
            if candidates.size:
                picks = rng.choice(
                    candidates,
                    size=min(n_del, candidates.size),
                    replace=False,
                )
                for e in picks:
                    u, v = int(src[e]), int(dst[e])
                    if (u, v) in ins_pairs or (v, u) in ins_pairs:
                        continue  # keep batches insert/delete-disjoint
                    del_pairs += [(u, v), (v, u)]

        add = 0
        if grow_every and (b + 1) % grow_every == 0:
            u = int(rng.integers(0, n))
            ins_pairs += [(u, n), (n, u)]
            add = 1

        batch = MutationBatch(
            insert_src=[p[0] for p in ins_pairs],
            insert_dst=[p[1] for p in ins_pairs],
            delete_src=[p[0] for p in del_pairs],
            delete_dst=[p[1] for p in del_pairs],
            add_vertices=add,
        )
        shadow.apply(batch)
        batches.append(batch)
    return batches


# -- the bench ---------------------------------------------------------------


def scratch_reference(snapshot, config, root, k):
    """From-scratch digests + per-algorithm wall time on the
    equivalent static graph."""
    digests = {}
    times = {}
    with Session(snapshot, config) as fresh:
        for name, handle in (
            ("bfs", IncrementalBFS(fresh, root=root)),
            ("cc", IncrementalCC(fresh)),
            ("kcore", IncrementalKCore(fresh, k=k)),
        ):
            t0 = time.perf_counter()
            digests[name] = handle.refresh().digest()
            times[name] = time.perf_counter() - t0
    return digests, times


def run_stream(args):
    graph = to_undirected(
        rmat(scale=args.scale, edge_factor=args.edge_factor, seed=args.seed)
    )
    if args.root < 0:
        args.root = int(np.argmax(graph.out_degrees()))
    config = RunConfig(
        machines=args.machines,
        executor=args.executor,
        workers=args.workers,
        bfs_roots=1,
    )
    batches = make_schedule(
        graph, args.batches, args.batch_size, args.grow_every, args.seed
    )
    hub = ObsHub(tracer=Tracer())

    rows = []
    failures = []
    with Session(graph, config) as session:
        bfs = IncrementalBFS(session, root=args.root)
        cc = IncrementalCC(session)
        kcore = IncrementalKCore(session, k=args.k)

        t0 = time.perf_counter()
        bfs.refresh()
        cc.refresh()
        kcore.refresh()
        initial = time.perf_counter() - t0

        for i, batch in enumerate(batches):
            t0 = time.perf_counter()
            stats = session.mutate(batch, obs=hub)
            mutate_s = time.perf_counter() - t0

            inc_times = {}
            t0 = time.perf_counter()
            r_bfs = bfs.refresh()
            inc_times["bfs"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            r_cc = cc.refresh()
            inc_times["cc"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            r_kcore = kcore.refresh()
            inc_times["kcore"] = time.perf_counter() - t0
            refresh_s = sum(inc_times.values())

            snapshot, version = session._graph_snapshot()
            expected, scr_times = scratch_reference(
                snapshot, config, args.root, args.k
            )
            scratch_s = sum(scr_times.values())
            got = {
                "bfs": r_bfs.digest(),
                "cc": r_cc.digest(),
                "kcore": r_kcore.digest(),
            }
            ok = got == expected
            if not ok:
                failures.append({
                    "batch": i, "version": version,
                    "got": got, "expected": expected,
                })

            rows.append({
                "batch": i,
                "version": stats.version,
                "inserts": stats.inserts,
                "deletes": stats.deletes,
                "removed_copies": stats.removed_copies,
                "add_vertices": stats.add_vertices,
                "num_edges": stats.num_edges,
                "overlay_edges": stats.overlay_edges,
                "compacted": stats.compacted,
                "modes": {
                    "bfs": r_bfs.mode,
                    "cc": r_cc.mode,
                    "kcore": r_kcore.mode,
                },
                "iterations": {
                    "bfs": r_bfs.iterations,
                    "cc": r_cc.iterations,
                },
                "mutate_seconds": mutate_s,
                "incremental_seconds": refresh_s,
                "scratch_seconds": scratch_s,
                "incremental_breakdown": inc_times,
                "scratch_breakdown": scr_times,
                "speedup": scratch_s / refresh_s if refresh_s > 0 else None,
                "gate": "ok" if ok else "MISMATCH",
            })

    events = list(hub.tracer.events)
    problems = validate_events(events)
    refresh_events = [e for e in events if e["kind"] == "partition_refresh"]
    total_cells = sum(e["schedule_cells"] for e in refresh_events)

    inc_total = sum(r["incremental_seconds"] for r in rows)
    scr_total = sum(r["scratch_seconds"] for r in rows)
    per_algorithm = {}
    for name in ("bfs", "cc", "kcore"):
        inc = sum(r["incremental_breakdown"][name] for r in rows)
        scr = sum(r["scratch_breakdown"][name] for r in rows)
        per_algorithm[name] = {
            "incremental_seconds": inc,
            "scratch_seconds": scr,
            "speedup": scr / inc if inc > 0 else None,
        }
    report = {
        "bench": "dynamic",
        "graph": {
            "scale": args.scale,
            "edge_factor": args.edge_factor,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "seed": args.seed,
        },
        "config": {
            "machines": args.machines,
            "executor": args.executor,
            "workers": args.workers,
            "batches": args.batches,
            "batch_size": args.batch_size,
            "k": args.k,
        },
        "initial_compute_seconds": initial,
        "incremental_seconds_total": inc_total,
        "scratch_seconds_total": scr_total,
        "stream_speedup": scr_total / inc_total if inc_total > 0 else None,
        "per_algorithm": per_algorithm,
        "partition_refreshes": len(refresh_events),
        "schedule_cells_invalidated": total_cells,
        "trace_problems": problems,
        "metamorphic_gate": "ok" if not failures else "FAILED",
        "failures": failures,
        "rows": rows,
    }
    return report


def print_table(report):
    print(
        f"dynamic stream on |V|={report['graph']['num_vertices']} "
        f"|E|={report['graph']['num_edges']} "
        f"({report['config']['executor']} executor, "
        f"{report['config']['machines']} machines)"
    )
    header = (
        f"{'batch':>5} {'ver':>4} {'+e':>5} {'-e':>5} {'edges':>8} "
        f"{'overlay':>7} {'cmp':>3} {'mutate':>9} {'incr':>9} "
        f"{'scratch':>9} {'speedup':>8} {'gate':>8}"
    )
    print(header)
    print("-" * len(header))
    for r in report["rows"]:
        speedup = f"{r['speedup']:.1f}x" if r["speedup"] else "-"
        print(
            f"{r['batch']:>5} {r['version']:>4} {r['inserts']:>5} "
            f"{r['removed_copies']:>5} {r['num_edges']:>8} "
            f"{r['overlay_edges']:>7} {'y' if r['compacted'] else 'n':>3} "
            f"{r['mutate_seconds']*1e3:>8.2f}m "
            f"{r['incremental_seconds']*1e3:>8.2f}m "
            f"{r['scratch_seconds']*1e3:>8.2f}m "
            f"{speedup:>8} {r['gate']:>8}"
        )
    print("-" * len(header))
    speedup = report["stream_speedup"]
    print(
        f"stream total: incremental {report['incremental_seconds_total']:.3f}s "
        f"vs scratch {report['scratch_seconds_total']:.3f}s "
        f"({speedup:.1f}x)" if speedup else "stream total: n/a"
    )
    for name, row in report["per_algorithm"].items():
        speedup = row["speedup"]
        print(
            f"  {name:>6}: incremental {row['incremental_seconds']:.3f}s "
            f"vs scratch {row['scratch_seconds']:.3f}s"
            + (f" ({speedup:.1f}x)" if speedup else "")
        )
    print(
        f"partition refreshes: {report['partition_refreshes']}, "
        f"circulant cells invalidated: "
        f"{report['schedule_cells_invalidated']}"
    )
    print(f"metamorphic gate: {report['metamorphic_gate']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=13,
                        help="rmat scale (default 13)")
    parser.add_argument("--edge-factor", type=int, default=8)
    parser.add_argument("--batches", type=int, default=12,
                        help="mutation batches to stream")
    parser.add_argument("--batch-size", type=int, default=64,
                        help="edge mutations per batch (pre-symmetrization)")
    parser.add_argument("--grow-every", type=int, default=4,
                        help="add a vertex every N batches (0 disables)")
    parser.add_argument("--machines", type=int, default=4)
    parser.add_argument("--executor", default="serial",
                        choices=("serial", "process"))
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--root", type=int, default=-1,
                        help="BFS root vertex (-1: highest-degree vertex)")
    parser.add_argument("--k", type=int, default=3, help="k-core k")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration, gate armed")
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale = min(args.scale, 9)
        args.batches = min(args.batches, 6)
        args.batch_size = min(args.batch_size, 24)

    report = run_stream(args)
    print_table(report)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_dynamic.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")

    if report["metamorphic_gate"] != "ok":
        print("FAIL: incremental results diverged from scratch",
              file=sys.stderr)
        return 1
    if report["trace_problems"]:
        print(f"FAIL: trace problems {report['trace_problems']}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

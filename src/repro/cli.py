"""Command-line interface.

Run experiments and inspect the framework without writing code::

    python -m repro datasets
    python -m repro run --engine symple --dataset s27 --algorithm mis
    python -m repro run --algorithm bfs --machines 4 --trace run.jsonl
    python -m repro compare --dataset s28 --algorithm kcore --machines 16
    python -m repro analyze bfs
    python -m repro verify src/repro/algorithms --strict --format sarif
    python -m repro run --algorithm bfs --metrics m.prom --metrics-format prom
    python -m repro trace run.jsonl --breakdown

``run`` executes one experiment and prints the metrics the paper's
tables report (``--trace``/``--metrics`` additionally stream a JSONL
event trace / a metrics export); ``compare`` runs Gemini and
SympleGraph side by side; ``analyze`` prints the analyzer report for
one of the built-in UDFs; ``verify`` runs the lint rules over
signal/slot UDFs, certifies every kernel classification against its
shape contract, flags executor determinism hazards, and notes for
every slot and push signal which shape it classified into (or why
none); it exits 1 on warnings, 2 on errors (notes are informational);
``trace`` validates a recorded trace against the event schema (exit 1
on violations) and summarizes it, optionally reconstructing the cost
breakdown and the per-(machine, step) attribution from the trace
alone.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional

from repro.analysis import explain_signal
from repro.api import FIELDS, RunConfig, Session
from repro.bench import DATASETS, dataset, speedup
from repro.bench.tables import format_table
from repro.engine import SympleOptions

_SIGNALS = {}


def _load_signals():
    if not _SIGNALS:
        from repro.algorithms import SIGNAL_UDFS

        _SIGNALS.update(
            {name: fns[0] for name, fns in SIGNAL_UDFS.items()}
        )
    return _SIGNALS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SympleGraph reproduction: simulated distributed "
        "graph processing with precise loop-carried dependency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the benchmark dataset registry")

    run = sub.add_parser("run", help="run one experiment")
    _add_run_args(run)
    _flag(run, "--engine", "engine")
    run.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="inject faults from a FaultPlan JSON file (every algorithm "
        "but scc)",
    )
    _flag(
        run, "--checkpoint-interval", "checkpoint_interval", metavar="N",
        help="checkpoint every N supersteps (0 disables, the default)",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream a structured JSONL event trace to PATH",
    )
    run.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the run's metric registry to PATH: the engine's "
        "whole counters and unscaled simulated time (over every BFS "
        "root), not the per-root averages the printed table shows",
    )
    run.add_argument(
        "--metrics-format",
        default="json",
        choices=("json", "prom"),
        help="metrics export format (default: json)",
    )
    run.add_argument(
        "--digest",
        action="store_true",
        help="print the result's canonical sha256 digest (equal across "
        "executor backends; the CI equivalence gate diffs it)",
    )

    trace = sub.add_parser(
        "trace", help="validate and summarize a recorded JSONL trace"
    )
    trace.add_argument("file", help="trace file written by --trace")
    trace.add_argument(
        "--breakdown",
        action="store_true",
        help="reconstruct the cost-model breakdown from the trace",
    )
    trace.add_argument(
        "--attribution",
        action="store_true",
        help="print the per-(machine, step) compute/dep-wait/overlap table",
    )

    compare = sub.add_parser(
        "compare", help="run Gemini and SympleGraph side by side"
    )
    _add_run_args(compare)

    analyze = sub.add_parser(
        "analyze", help="print the analyzer report for a built-in UDF"
    )
    analyze.add_argument("signal", choices=sorted(_load_signals()))

    verify = sub.add_parser(
        "verify",
        help="lint signal/slot UDFs in modules or files, certify kernel "
        "classifications and flag determinism hazards",
    )
    verify.add_argument(
        "targets",
        nargs="+",
        help="a .py file, a directory, a dotted module name, or a "
        "built-in signal name (e.g. kcore)",
    )
    verify.add_argument(
        "--strict",
        action="store_true",
        help="promote strict severities (non-commutative-slot becomes "
        "a warning) before computing the exit code",
    )
    verify.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="CODE",
        help="disable a rule code (repeatable)",
    )
    verify.add_argument(
        "--format",
        default="text",
        choices=("text", "json", "sarif"),
        help="output format (default: text)",
    )
    verify.add_argument(
        "--output", default=None, help="write the report here instead of stdout"
    )

    sweep = sub.add_parser(
        "sweep", help="sweep machine counts for one engine/algorithm"
    )
    _flag(sweep, "--engine", "engine")
    sweep.add_argument("--dataset", default="s27", choices=sorted(DATASETS))
    _flag(sweep, "--algorithm", "algorithm", default="mis")
    _flag(sweep, "--seed", "seed")
    sweep.add_argument(
        "--machines", type=int, nargs="+", default=[1, 2, 4, 8, 16]
    )

    schedule = sub.add_parser(
        "schedule", help="print the circulant schedule matrix (Figure 7)"
    )
    schedule.add_argument("--machines", type=int, default=4)

    serve = sub.add_parser(
        "serve", help="start the long-lived graph query service"
    )
    serve.add_argument(
        "--graph",
        action="append",
        default=None,
        metavar="NAME=SPEC",
        help="serve a graph under NAME (repeatable); SPEC is a dataset "
        "short name, rmat:scale=...,edge_factor=...,seed=..., or "
        "file:/path.  Bare SPEC uses itself as the name.  "
        "Default: the s27 benchmark dataset.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8571)
    serve.add_argument(
        "--max-depth", type=int, default=64,
        help="admission control: queued requests beyond this get "
        "429 + Retry-After (default: 64)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="most identical requests one engine run may answer "
        "(default: 64)",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request deadline; late queries get 504 (default: 30)",
    )

    report = sub.add_parser(
        "report", help="collect regenerated benchmark tables into one report"
    )
    report.add_argument(
        "--results-dir",
        default=None,
        help="directory of bench results (default: benchmarks/results)",
    )
    report.add_argument("--output", default=None, help="write report here")

    return parser


def _flag(cmd: argparse.ArgumentParser, flag: str, name: str,
          **extra: Any) -> None:
    """Add ``flag`` for the config field ``name`` (``"options.schedule"``
    names a nested one), stored under the field's name: its type,
    choices and default come from the field table row and the dataclass
    holding the field."""
    block, _, attr = name.rpartition(".")
    owner = FIELDS[block].type if block else RunConfig
    row = (FIELDS[block].fields if block else FIELDS)[attr]
    if row.choices:
        extra.setdefault("choices", row.options())
    else:
        extra.setdefault("type", row.type)
    extra.setdefault("default", owner.__dataclass_fields__[attr].default)
    extra.setdefault("dest", attr)
    cmd.add_argument(flag, **extra)


def _add_run_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--dataset", default="s27", choices=sorted(DATASETS))
    _flag(cmd, "--algorithm", "algorithm")
    _flag(cmd, "--machines", "machines")
    _flag(cmd, "--seed", "seed")
    _flag(cmd, "--kcore-k", "kcore_k")
    _flag(cmd, "--bfs-roots", "bfs_roots")
    _flag(
        cmd, "--mode", "mode",
        help="execution mode: BSP supersteps (sync) or the "
        "priority-bucket scheduler (async; bfs/cc/sssp on "
        "the symple/gemini/single engines)",
    )
    cmd.add_argument(
        "--no-double-buffering", action="store_true",
        help="disable the double-buffering optimization",
    )
    cmd.add_argument(
        "--no-differentiated", action="store_true",
        help="disable differentiated dependency propagation",
    )
    _flag(cmd, "--schedule", "options.schedule")
    _flag(
        cmd, "--executor", "executor",
        help="backend the per-machine work units run on (results are "
        "bit-identical across backends; default: serial)",
    )
    _flag(
        cmd, "--workers", "workers", metavar="N",
        help="worker count for the process executor "
        "(default: cpu count)",
    )


def _options(args) -> SympleOptions:
    return SympleOptions(
        double_buffering=not args.no_double_buffering,
        differentiated=not args.no_differentiated,
        schedule=args.schedule,
    )


def _run_config(engine: str, args, obs=None) -> RunConfig:
    # the config flags store under their field's name; --faults is a path
    fields = {
        name: value for name, value in vars(args).items()
        if name in FIELDS and name not in ("engine", "faults")
    }
    if getattr(args, "faults", None):
        from repro.fault import FaultPlan

        fields["faults"] = FaultPlan.load(args.faults)
    return RunConfig(
        engine=engine,
        options=_options(args) if engine == "symple" else None,
        obs=obs,
        **fields,
    )


def _execute(engine: str, args, obs=None):
    with Session(dataset(args.dataset)) as session:
        return session.run(_run_config(engine, args, obs=obs))


def _export_metrics(registry, fmt: str, output: str) -> None:
    text = (
        registry.export_prometheus()
        if fmt == "prom"
        else registry.export_json_str()
    )
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
    print(f"metrics written to {output}")


def _trace(args) -> int:
    """Run ``repro trace``: validate, summarize, optionally reconstruct."""
    from repro.obs import (
        read_trace,
        rebuild_counters,
        reconstruct_breakdown,
        summarize_events,
        validate_events,
    )
    from repro.runtime.cost_model import (
        DGALOIS_COST,
        GEMINI_COST,
        SINGLE_THREAD_COST,
        SYMPLE_COST,
    )

    try:
        events = read_trace(args.file)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    problems = validate_events(events)
    if problems:
        for problem in problems:
            print(f"schema violation: {problem}", file=sys.stderr)
        return 1
    counts = summarize_events(events)
    total = sum(counts.values())
    by_kind = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"{args.file}: {total} events ({by_kind})")

    if not (args.breakdown or args.attribution):
        return 0
    run_end = next(
        (e for e in events if e.get("kind") == "run_end"), None
    )
    if run_end is None:
        print(
            "trace has no run_end event; cannot reconstruct costs",
            file=sys.stderr,
        )
        return 1
    presets = {
        "gemini": GEMINI_COST,
        "symple": SYMPLE_COST,
        "dgalois": DGALOIS_COST,
        "single": SINGLE_THREAD_COST,
    }
    model = presets.get(run_end["engine"], SYMPLE_COST)
    if args.breakdown:
        breakdown = reconstruct_breakdown(events, model)
        print(f"cost breakdown ({run_end['engine']} preset):")
        for component, value in breakdown.items():
            print(f"  {component:>16}: {value:,.1f}")
    if args.attribution:
        from repro.obs import attribution_rows

        rows = attribution_rows(
            rebuild_counters(events),
            model,
            double_buffering=bool(run_end.get("double_buffering", True)),
        )
        if not rows:
            print("no circulant pull iterations to attribute")
            return 0
        table = [
            [
                r["iteration"], r["step"], r["machine"],
                f"{r['compute']:,.1f}", f"{r['dep_wait']:,.1f}",
                f"{r['hidden_wait']:,.1f}", f"{r['finish']:,.1f}",
            ]
            for r in rows
        ]
        print(
            format_table(
                "per-(machine, step) attribution",
                ["iter", "step", "machine", "compute", "dep.wait",
                 "hidden.wait", "finish"],
                table,
            )
        )
    return 0


def _metric_rows(results) -> List[List[object]]:
    rows = []
    for r in results:
        rows.append(
            [
                r.engine,
                f"{r.simulated_time:,.0f}",
                f"{r.edges_traversed:,}",
                f"{r.update_bytes:,}",
                f"{r.dep_bytes:,}",
                f"{r.total_bytes:,}",
            ]
        )
    return rows


def _verify(args) -> int:
    """Run ``repro verify``: discover, lint, certify, render, exit-code.

    2 on errors (an unsound kernel classification, an analyzer
    rejection, a target that does not load), 1 on warnings (lint and
    determinism hazards; plus strict-promoted rules under
    ``--strict``), 0 otherwise.  ``--ignore`` disables rule codes,
    under ``--strict`` too.
    """
    from repro.analysis.report import render_json, render_sarif, render_text
    from repro.analysis.rules import LintConfig
    from repro.analysis.verify import verify_targets

    report = verify_targets(
        args.targets,
        strict=args.strict,
        config=LintConfig(disabled=frozenset(args.ignore)),
        named_signals=_load_signals(),
    )
    if args.format == "json":
        text = render_json(report.messages)
    elif args.format == "sarif":
        text = render_sarif(report.messages)
    else:
        body = render_text(report.messages)
        text = (body + "\n" if body else "") + report.summary()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return report.exit_code


def _serve(args) -> int:
    """Run ``repro serve``: load graphs, start the daemon, drain on TERM."""
    from repro.serve import GraphRegistry, ServeApp, serve_forever

    registry = GraphRegistry()
    for item in args.graph or ["s27"]:
        name, eq, spec = item.partition("=")
        if not eq:
            name, spec = item, item
        entry = registry.load(name, spec)
        facts = entry.describe()
        print(
            f"repro serve: loaded {name!r} <- {spec} "
            f"({facts['num_vertices']:,} vertices, "
            f"{facts['num_edges']:,} edges)",
            flush=True,
        )
    app = ServeApp(
        registry,
        max_depth=args.max_depth,
        max_batch=args.max_batch,
        request_timeout=args.timeout,
    )
    return serve_forever(app, host=args.host, port=args.port)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "datasets":
        rows = []
        for name, spec in DATASETS.items():
            g = dataset(name)
            rows.append(
                [name, spec.paper_name, g.num_vertices, g.num_edges,
                 spec.description]
            )
        print(
            format_table(
                "Benchmark datasets (paper graph -> scaled stand-in)",
                ["name", "paper graph", "|V|", "|E|", "notes"],
                rows,
            )
        )
        return 0

    if args.command == "analyze":
        print(explain_signal(_load_signals()[args.signal]))
        return 0

    if args.command == "verify":
        return _verify(args)

    if args.command == "serve":
        return _serve(args)

    if args.command == "schedule":
        from repro.engine.symple import render_schedule

        print(render_schedule(args.machines))
        return 0

    if args.command == "report":
        import os

        from repro.bench.report import collect_results

        results_dir = args.results_dir
        if results_dir is None:
            results_dir = os.path.join(os.getcwd(), "benchmarks", "results")
        print(collect_results(results_dir, output_path=args.output))
        return 0

    if args.command == "sweep":
        from repro.bench.sweeps import machine_sweep

        sweep = machine_sweep(
            args.engine,
            dataset(args.dataset),
            args.algorithm,
            machine_counts=args.machines,
            seed=args.seed,
        )
        rows = [
            [p, f"{sweep.runs[p].simulated_time:,.0f}",
             f"{sweep.runs[p].total_bytes:,}"]
            for p in sweep.values
        ]
        print(
            format_table(
                f"{args.engine} {args.algorithm}/{args.dataset} "
                "machine sweep",
                ["machines", "sim.time", "total.bytes"],
                rows,
                note=f"best machine count: {sweep.best()}",
            )
        )
        return 0

    if args.command == "trace":
        return _trace(args)

    if args.command == "run":
        hub = None
        if args.trace or args.metrics:
            from repro.obs import ObsHub, Tracer

            tracer = Tracer(path=args.trace) if args.trace else None
            hub = ObsHub(tracer=tracer)
        result = _execute(args.engine, args, obs=hub)
        print(
            format_table(
                f"{args.algorithm} on {args.dataset} "
                f"({args.machines} machines)",
                ["engine", "sim.time", "edges", "upd.bytes", "dep.bytes",
                 "total.bytes"],
                _metric_rows([result]),
            )
        )
        for key, value in sorted(result.extra.items()):
            print(f"{key}: {value}")
        if args.digest:
            print(f"digest: {result.digest()}")
        if hub is not None:
            hub.close()
            if args.trace:
                print(f"trace written to {args.trace}")
            if args.metrics:
                _export_metrics(
                    hub.metrics, args.metrics_format, args.metrics
                )
        return 0

    if args.command == "compare":
        with Session(dataset(args.dataset)) as session:
            gem = session.run(_run_config("gemini", args))
            sym = session.run(_run_config("symple", args))
        print(
            format_table(
                f"{args.algorithm} on {args.dataset} "
                f"({args.machines} machines)",
                ["engine", "sim.time", "edges", "upd.bytes", "dep.bytes",
                 "total.bytes"],
                _metric_rows([gem, sym]),
                note=f"SympleGraph speedup: {speedup(gem, sym):.2f}x",
            )
        )
        return 0

    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

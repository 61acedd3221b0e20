"""One workload, one pass: the untraced pass gives the end-to-end
numbers, the traced pass the per-layer ones.

Every time is normalised by the host-speed reference measured around
the operation it belongs to (see :mod:`hostref`).  The two passes never
mix: end-to-end metrics come from operations that ran unpatched code,
and the traced pass interleaves unpatched and recorded operations so
that the cost of recording is itself a number
(``bench.trace_overhead_share``).
"""

from __future__ import annotations

import gc
import os
import resource
import time
from typing import Any, Callable, Dict, List, Tuple

import hostref
import serving
import spans as sp
import workloads as wl

__all__ = ["Outcome", "run_untraced", "run_traced"]


class Outcome:
    """Operations attempted and failed, problems, reference outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Dict[str, Any] = {}
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.spans: List[Dict[str, Any]] = []
        #: the observation ``expected.json`` pins for this workload
        self.pinned: Any = None
        #: median unpatched operation of a traced pass
        self.untraced_run_s = 0.0

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def timed(self, kind: str, op: Callable[[], Any]) -> Tuple[float, float]:
        """Run one operation between reference loops and check it.

        Every operation of one ``kind`` must return the same
        observation.  Returns ``(normalised seconds, host speed)``.
        """
        self.attempted += 1
        try:
            observation, seconds, factor = hostref.timed(op)
        except Exception as exc:  # an operation that raised is a failure
            self.fail(f"{kind} raised {type(exc).__name__}: {exc}")
            raise
        self.check(kind, observation)
        return seconds, factor

    def check(self, kind: str, observation: Any) -> None:
        expected = self.reference.setdefault(kind, observation)
        if observation != expected:
            self.fail(f"{kind} returned a different result on a repeat")

    def correct(self) -> bool:
        return self.failed == 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(
    setups: List[float], run_s: float, tail_s: float, qps: float, edges: int
) -> Dict[str, float]:
    """The end-to-end metrics every workload reports."""
    return {
        "setup_s": hostref.median(setups),
        "run_s": run_s,
        "edges_per_s": edges / run_s,
        "qps": qps,
        "query_p50_ms": run_s * 1e3,
        "query_p95_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


# -- untraced pass -------------------------------------------------------------


def pin_serial(w) -> None:
    """Keep a single-threaded workload on one CPU.

    The vCPUs of a shared host slow down independently; unpinned, the
    operation and the reference loops around it can land on different
    ones and the normalisation then corrects for the wrong CPU.
    """
    if w.serial:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_untraced(w, seconds: float) -> Outcome:
    out = Outcome()
    pin_serial(w)
    w.prepare()
    try:
        if isinstance(w, wl.ServeHot):
            _serve(w, seconds, out, traced=False)
        else:
            _untraced_loop(w, seconds, out)
        _verify(w, out, traced=False)
    finally:
        w.close()
    return out


def _verify(w, out: Outcome, traced: bool) -> None:
    """Twin / scratch / replay checks against the pinned observation.

    ``serve_hot`` pins its first, uncoalesced query; what the later
    queries return depends on which of them the server merged.
    """
    out.pinned = out.reference[
        "setup" if isinstance(w, wl.ServeHot) else "op"
    ]
    for problem in w.verify(out.pinned, traced):
        out.fail(problem)


def _untraced_loop(w, seconds: float, out: Outcome) -> None:
    setups = [out.timed("setup", w.setup)[0] for _ in range(w.setup_repeats)]
    for _ in range(w.warmups):
        out.timed("op", w.op)
    latencies: List[float] = []
    speeds: List[float] = []
    started = time.perf_counter()
    while (len(latencies) < w.min_ops
           or time.perf_counter() - started < seconds):
        if w.per_round_setup:
            setups.append(out.timed("setup", w.setup)[0])
        gc.collect()
        s, factor = out.timed("op", w.op)
        latencies.append(s)
        speeds.append(factor)
    out.samples = {"setup_s": setups, "op_s": latencies, "speed": speeds}
    # one caller: the tail needs ten samples beyond it, else the median
    out.metrics = end_to_end(
        setups, hostref.median(latencies), hostref.tail(latencies),
        len(latencies) / sum(latencies), w.edges,
    )


# -- traced pass ---------------------------------------------------------------

#: U = an unpatched operation, T = a recorded one
BATCH_PLAN = "UTUTUT"
ROUND_PLAN = "UTTUT"
SMOKE_PLAN = "UTTT"


def run_traced(w, seconds: float) -> Outcome:
    out = Outcome()
    pin_serial(w)
    _, generate_s, _ = hostref.timed(w.prepare)
    try:
        if isinstance(w, wl.ServeHot):
            _serve(w, seconds, out, traced=True)
        else:
            _traced_loop(w, out)
        _verify(w, out, traced=True)
        _finish_layers(w, out)
    finally:
        w.close()
    out.metrics["graph.generate_s"] = generate_s
    out.metrics["graph.vertices"] = float(w.n)
    out.metrics["graph.edges"] = float(w.edges)
    return out


def _traced_loop(w, out: Outcome) -> None:
    recorder = sp.Recorder(kernels=w.serial)
    metrics = out.metrics

    def recorded(kind: str, op) -> Tuple[List[sp.Span], Dict, float, float]:
        mark = recorder.mark()
        with recorder:
            seconds, factor = out.timed(kind, op)
        found, counts = recorder.since(mark)
        return found, counts, seconds, factor

    cold, _, _, cold_speed = recorded("setup", w.setup)
    metrics["partition.build_s"] = (
        sp.inclusive(cold, "Partitioner.partition") * cold_speed
    )
    metrics["analysis.analyze_s"] = (
        sp.inclusive(cold, "ensure_analyzed") * cold_speed
    )
    if recorder.partitions:
        local = [
            recorder.partitions[0].local_in(m).num_edges
            for m in range(w.machines)
        ]
        metrics["partition.edge_imbalance"] = max(local) / (
            sum(local) / len(local)
        )
    cold_run_s = sp.inclusive(cold, "Session.run") * cold_speed

    for _ in range(min(w.warmups, 1)):
        out.timed("op", w.op)
    plain: List[float] = []
    traced: List[float] = []
    speeds: List[float] = []
    per_op: List[Dict[str, float]] = []
    plan = ROUND_PLAN if w.per_round_setup else BATCH_PLAN
    for i, mode in enumerate(SMOKE_PLAN if w.smoke else plan):
        if w.per_round_setup and i > 0:
            out.timed("setup", w.setup)
        gc.collect()
        if mode == "U":
            s, factor = out.timed("op", w.op)
            plain.append(s)
        else:
            found, counts, s, factor = recorded("op", w.op)
            traced.append(s)
            per_op.append(_layer_numbers(found, counts, s, factor, w.serial))
        speeds.append(factor)

    for name in per_op[0]:
        metrics[name] = hostref.median([numbers[name] for numbers in per_op])
    run_s = hostref.median(plain)
    metrics["bench.traced_run_s"] = hostref.median(traced)
    metrics["bench.trace_overhead_share"] = (
        hostref.median(traced) / run_s - 1.0
    )
    metrics["bench.host_speed"] = hostref.median(speeds)
    metrics["bench.samples"] = float(len(traced))
    if not w.serial:
        # pool spawn + topology publish, paid by the first run only
        metrics["exec.cold_extra_s"] = cold_run_s - run_s
    refreshes = recorder.refreshes
    if refreshes:
        metrics["partition.refresh_reused_share"] = sum(
            r.reused_machines for r in refreshes
        ) / sum(r.num_machines for r in refreshes)
    out.samples = {"plain_s": plain, "traced_s": traced, "speed": speeds}
    out.spans = recorder.dump()
    out.untraced_run_s = run_s


def _layer_numbers(
    found: List[sp.Span], counts: Dict[str, float],
    seconds: float, factor: float, serial: bool,
) -> Dict[str, float]:
    """Layer metrics of one recorded operation, in normalised seconds."""

    def inc(name: str) -> float:
        return sp.inclusive(found, name) * factor

    def own(name: str) -> float:
        return sp.self_time(found, name) * factor

    kernel_s = sum(
        s.seconds for s in found if s.layer == "kernels"
    ) * factor
    roots = sum(s.seconds for s in found if s.parent < 0) * factor
    return {
        "graph.mutate_apply_s": own("Session.mutate"),
        "partition.refresh_s": inc("refresh_partition"),
        "kernels.signal_s": kernel_s,
        "kernels.calls": counts.get("kernels.calls", 0.0),
        "kernels.vertices": counts.get("kernels.vertices", 0.0),
        "kernels.edges": counts.get("kernels.edges", 0.0),
        "kernels.edges_per_s": (
            counts.get("kernels.edges", 0.0) / kernel_s if kernel_s else 0.0
        ),
        "engine.make_s": inc("make_engine"),
        "engine.pull_s": inc("pull"),
        "engine.push_s": inc("push"),
        "engine.sync_s": inc("sync_state"),
        "engine.phases": float(sp.calls(found, "pull")
                               + sp.calls(found, "push")),
        "engine.self_s": own("pull") + own("push") + own("sync_state"),
        "runtime.cost_eval_s": inc("execution_time"),
        "exec.map_s": inc("map_machines"),
        "exec.map_calls": float(sp.calls(found, "map_machines")),
        "exec.bind_s": inc("Executor.bind"),
        "exec.unit_s": own("map_machines") if serial else 0.0,
        "algorithms.self_s": own("runner"),
        "algorithms.incremental_bfs_s": inc("IncrementalBFS.refresh"),
        "algorithms.incremental_cc_s": inc("IncrementalCC.refresh"),
        "api.self_s": own("Session.run"),
        "bench.span_coverage": roots / seconds,
    }


def _finish_layers(w, out: Outcome) -> None:
    """Counts and side measurements that need no spans."""
    metrics = out.metrics
    metrics.update(w.layer)
    if isinstance(w, wl.ServeHot):
        return
    run_s = out.untraced_run_s
    if isinstance(w, wl.DynStream):
        batches = len(w.schedule)
        for algo in ("bfs", "cc"):
            refresh = metrics[f"algorithms.incremental_{algo}_s"] / batches
            metrics[f"algorithms.incremental_{algo}_speedup"] = (
                w.scratch_s[algo] / refresh
            )
        return
    last = w.last
    metrics.update({
        "engine.edges_traversed": float(last.edges_traversed),
        "engine.update_bytes": float(last.update_bytes),
        "engine.dep_bytes": float(last.dep_bytes),
        "engine.total_bytes": float(last.total_bytes),
        "engine.dep_share": last.dep_bytes / last.total_bytes,
        "runtime.sim_time": float(last.simulated_time),
        "analysis.kernel_share": wl.kernel_share(w.algorithm),
        "analysis.verify_s": wl.verify_seconds(w.algorithm),
    })
    metrics.update(w.side_layers(run_s))


# -- serve_hot -----------------------------------------------------------------


def _serve(w, seconds: float, out: Outcome, traced: bool) -> None:
    setups = [out.timed("setup", w.setup)[0] for _ in range(w.setup_repeats)]
    replies, _ = w.block(w.warmup_queries)
    _count(w, out, replies)
    before = serving.scrape(w.server.port) if traced else None

    # every block is one sample of each metric; a slow half-minute of
    # the host then spoils a block, not the pooled percentile
    p50s: List[float] = []
    p95s: List[float] = []
    rates: List[float] = []
    latencies: List[float] = []
    server_side: List[float] = []
    overhead: List[float] = []
    speeds: List[float] = []
    rejections = 0
    ref = w.server.reference()
    started = time.perf_counter()
    while (len(speeds) < w.min_blocks
           or time.perf_counter() - started < seconds):
        replies, wall = w.block(w.block_queries)
        after = w.server.reference()
        factor = hostref.speed(ref, after)
        ref = after
        _count(w, out, replies)
        good = [r for r in replies if r.ok]
        block = [r.seconds * factor for r in good]
        p50s.append(hostref.median(block))
        p95s.append(hostref.percentile(block, 0.95))
        rates.append(len(good) / (wall * factor))
        latencies += block
        server_side += [r.payload["latency_seconds"] * factor for r in good]
        overhead += [
            (r.seconds - r.payload["latency_seconds"]) * factor for r in good
        ]
        rejections += sum(r.rejections for r in replies)
        speeds.append(factor)

    out.samples = {"setup_s": setups, "block_speed": speeds,
                   "block_p50_s": p50s, "block_p95_s": p95s,
                   "block_qps": rates}
    if not traced:
        out.metrics = end_to_end(
            setups, hostref.median(p50s), hostref.median(p95s),
            hostref.median(rates), w.edges,
        )
        return
    after_scrape = serving.scrape(w.server.port)
    speed = hostref.median(speeds)

    def delta(key: str) -> float:
        return after_scrape[key] - before[key]

    def hist_p50_ms(name: str) -> float:
        return 1e3 * speed * serving.histogram_quantile(
            before["histograms"].get(name, {}),
            after_scrape["histograms"].get(name, {}), 0.5,
        )

    served = delta("requests_ok")
    out.metrics.update({
        "serve.queue_wait_p50_ms": hist_p50_ms(
            "repro_serve_queue_wait_seconds"),
        "serve.engine_run_p50_ms": hist_p50_ms("repro_serve_run_seconds"),
        "serve.server_latency_p50_ms": 1e3 * hostref.median(server_side),
        "serve.http_overhead_p50_ms": 1e3 * hostref.median(overhead),
        "serve.mean_batch": served / delta("runs"),
        "serve.coalesced_share": delta("coalesced_requests") / served,
        "serve.runs_per_request": delta("runs") / served,
        "serve.rejected_429": float(rejections),
        "serve.timeouts": delta("requests_timeout"),
        "serve.query_p99_ms": 1e3 * hostref.percentile(latencies, 0.99),
        "bench.traced_run_s": hostref.median(latencies),
        # the client records the same fields in both passes and nothing
        # in the server is wrapped, so there is no recording cost to find
        "bench.trace_overhead_share": 0.0,
        "bench.host_speed": speed,
        "bench.samples": float(len(latencies)),
    })


def _count(w, out: Outcome, replies: List[serving.Reply]) -> None:
    out.attempted += len(replies)
    for reply in replies:
        if reply.ok:
            w.remember(reply)
        else:
            out.fail(f"query answered {reply.status}: "
                     f"{reply.payload.get('error', '')}")

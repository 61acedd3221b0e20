"""Post-hoc attribution: reconstruct runs and split simulated time.

A trace emitted by :class:`~repro.obs.hooks.ObsHub` is *complete*:
``step_end`` events carry every per-machine :class:`StepRecord` array,
``phase_end`` the iteration-wide sync/push traffic, ``checkpoint`` /
``restore`` / ``sync_update`` the late mutations of already-committed
records, and ``run_end`` the final counter summary.
:func:`rebuild_counters` therefore reconstructs the run's
:class:`~repro.runtime.counters.Counters` bit-for-bit (integers are
exact in JSON; float64 round-trips through ``repr``), so a cost-model
breakdown recomputed from the trace equals the live one exactly —
the property the CI trace gate asserts.

:func:`attribution_rows` flattens the cost model's circulant timeline
(:meth:`~repro.runtime.cost_model.CostModel.circulant_timeline`) and
reports, per (iteration, step, machine), where the simulated time went:
compute, *exposed* dependency wait (machine blocked on the incoming
hand-off), and the wait *hidden* by double buffering's split transfer —
the Figure 7/11 view.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ReproError
from repro.runtime.counters import COMM_TAGS, Counters, IterationRecord, StepRecord
from repro.runtime.cost_model import CostModel

__all__ = [
    "rebuild_counters",
    "reconstruct_breakdown",
    "attribution_rows",
]


def rebuild_counters(events: Iterable[Dict[str, Any]]) -> Counters:
    """Reconstruct a run's :class:`Counters` exactly from its trace.

    Requires a ``run_end`` event (the harness emits one); step records
    of aborted phases (a crash severs the circulation before
    ``phase_end``) are discarded, matching the live engine, which never
    commits them.
    """
    counters: Optional[Counters] = None
    machines: Optional[int] = None
    pending: List[StepRecord] = []
    run_end: Optional[Dict[str, Any]] = None
    for event in events:
        kind = event.get("kind")
        if kind == "phase_begin":
            machines = int(event["machines"])
            if counters is None:
                counters = Counters(machines)
            elif machines != counters.num_machines:
                raise ReproError(
                    "trace mixes machine counts "
                    f"({counters.num_machines} vs {machines})"
                )
            pending = []
        elif kind == "step_end":
            if machines is None:
                raise ReproError("step_end before any phase_begin")
            pending.append(StepRecord.from_payload(event, machines))
        elif kind == "phase_end":
            if counters is None:
                raise ReproError("phase_end before any phase_begin")
            record = IterationRecord(mode=event["mode"])
            record.steps = pending
            record.sync_bytes = int(event["sync_bytes"])
            record.push_bytes = int(event["push_bytes"])
            counters.add_iteration(record)
            pending = []
        elif kind == "crash":
            pending = []
        elif kind == "implicit_record":
            machines = int(event["machines"])
            if counters is None:
                counters = Counters(machines)
            record = IterationRecord(mode="pull")
            record.steps = [StepRecord(machines)]
            counters.add_iteration(record)
        elif kind == "sync_update":
            if counters is None or event["record"] >= len(counters.iterations):
                raise ReproError("sync_update references a missing record")
            counters.iterations[event["record"]].sync_bytes += int(
                event["bytes"]
            )
        elif kind in ("checkpoint", "restore"):
            index = event["record"]
            if index is None:
                continue
            if counters is None or index >= len(counters.iterations):
                raise ReproError(f"{kind} references a missing record")
            counters.iterations[index].ckpt_bytes += int(event["bytes"])
        elif kind == "run_end":
            run_end = event
    if run_end is None:
        raise ReproError(
            "trace has no run_end event; incomplete traces cannot be "
            "reconstructed exactly"
        )
    if counters is None:
        counters = Counters(int(run_end["machines"]))
    summary = run_end["summary"]
    counters.edges_traversed = int(summary["edges_traversed"])
    counters.vertices_processed = int(summary["vertices_processed"])
    counters.penalty_time = float(summary["penalty_time"])
    for tag in COMM_TAGS:
        counters.bytes_by_tag[tag] = int(summary[f"{tag}_bytes"])
        counters.messages_by_tag[tag] = int(summary["messages_by_tag"][tag])
    return counters


def reconstruct_breakdown(
    events: Iterable[Dict[str, Any]], cost_model: CostModel
) -> Dict[str, float]:
    """Cost-model breakdown recomputed purely from a trace: the
    rebuilt run priced once, then split.

    The engine kind and its pricing options (double buffering,
    schedule) are what the ``run_end`` event recorded, so one trace
    file is self-describing.
    """
    events = list(events)
    run_end = next(
        (e for e in events if e.get("kind") == "run_end"), None
    )
    if run_end is None:
        raise ReproError("trace has no run_end event")
    counters = rebuild_counters(events)
    total = cost_model.execution_time(
        counters, run_end["engine"],
        double_buffering=bool(run_end.get("double_buffering", True)),
        schedule=run_end.get("schedule", "circulant"),
    )
    return cost_model.breakdown(counters, total)


def attribution_rows(
    counters: Counters,
    cost_model: CostModel,
    double_buffering: bool = True,
) -> List[Dict[str, Any]]:
    """Flat per-(iteration, step, machine) rows over a whole run.

    The tabular view ``repro trace --attribution`` prints; push-mode
    iterations have no dependency circulation and are skipped.
    """
    rows: List[Dict[str, Any]] = []
    for it, record in enumerate(counters.iterations):
        if record.mode != "pull":
            continue
        tl = cost_model.circulant_timeline(
            record, double_buffering=double_buffering
        )
        for step in range(tl.num_steps):
            for m in range(tl.num_machines):
                rows.append(
                    {
                        "iteration": it,
                        "step": step,
                        "machine": m,
                        "compute": float(tl.compute[step, m]),
                        "dep_wait": float(tl.dep_wait[step, m]),
                        "hidden_wait": float(tl.hidden_wait[step, m]),
                        "start": float(tl.start[step, m]),
                        "finish": float(tl.finish[step, m]),
                    }
                )
    return rows

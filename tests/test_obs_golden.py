"""Golden trace shape: what a traced run emits, pinned.

Six runs that between them fire every event kind a run emits — a
symple BFS (pull and push phases), a gemini BFS, an async BFS (priority
buckets), a k-core with an injected crash and checkpoints every two
supersteps, a process-executor run (pool spawn, arena growth) and a
``Session.mutate`` followed by a run on the refreshed partition.  For
each, the exact set of ``(kind, sorted keys)`` in its trace and the
``(name, type, label names)`` of every family its live registry
exports.  A change to how events are declared or routed must leave
both as they are.
"""

import pytest

from repro import RunConfig, Session
from repro.fault import FaultPlan
from repro.graph import erdos_renyi, to_undirected
from repro.graph.dynamic import MutationBatch
from repro.obs import ObsHub, Tracer

MACHINES = 4

_PHASE = ("kind", "phase", "seq")
_STEP_ARRAYS = ("dep_bytes", "high_edges", "high_vertices", "low_edges",
                "low_vertices", "slowdown", "update_bytes")

#: kind -> the sorted keys of every event of that kind
KEYS = {
    "bucket_begin": ("bucket", "hi", "kind", "lo", "seq", "size"),
    "bucket_end": ("activations", "bucket", "kind", "seq", "waves"),
    "checkpoint": ("bytes", "kind", "record", "seq", "superstep"),
    "crash": ("iteration", "kind", "machine", "seq", "step"),
    "dep_transfer": ("bytes", "dst", "kind", "phase", "seq", "src",
                     "step"),
    "exec_arena_grow": ("arena", "backend", "bytes", "kind", "seq"),
    "exec_map_begin": ("backend", "kind", "phase", "seq", "step",
                       "tasks", "workers"),
    "exec_map_end": ("backend", "kind", "phase", "seconds", "seq",
                     "step", "tasks"),
    "exec_pool_spawn": ("backend", "generation", "kind", "seq", "spawns",
                        "workers"),
    "implicit_record": ("kind", "machines", "seq"),
    "kernel_batch": ("edges", "kernel", "kind", "machine", "phase",
                     "seconds", "seq", "step", "vertices"),
    "mutation_apply": ("add_vertices", "deletes", "graph_version",
                       "inserts", "kind", "num_edges", "seq"),
    "partition_refresh": ("graph_version", "kind", "machines",
                          "reused_machines", "schedule_cells", "seq",
                          "strategy", "total_cells", "touched_machines"),
    "phase_begin": ("engine", "kind", "machines", "mode", "phase", "seq"),
    "phase_end": ("kind", "mode", "phase", "push_bytes", "seconds", "seq",
                  "steps", "sync_bytes"),
    "restore": ("bytes", "kind", "record", "seq", "superstep"),
    "rollback": ("from_scratch", "kind", "penalty", "recoveries",
                 "restored", "seq", "superstep"),
    "run_end": ("double_buffering", "engine", "kind", "machines",
                "schedule", "seq", "summary"),
    "step_begin": ("kind", "phase", "seq", "step"),
    "step_end": tuple(sorted(_PHASE + _STEP_ARRAYS + ("step",))),
    "sync_update": ("bytes", "kind", "record", "seq"),
}

#: metric family -> (type, label names)
FAMILIES = {
    "repro_async_activations_total": ("counter", ()),
    "repro_buckets_total": ("counter", ()),
    "repro_checkpoint_bytes_total": ("counter", ()),
    "repro_checkpoints_total": ("counter", ()),
    "repro_comm_bytes_total": ("counter", ("tag",)),
    "repro_comm_messages_total": ("counter", ("tag",)),
    "repro_crashes_total": ("counter", ()),
    "repro_dep_transfer_bytes_total": ("counter", ()),
    "repro_dep_transfers_total": ("counter", ()),
    "repro_edges_traversed": ("gauge", ()),
    "repro_exec_arena_bytes": ("gauge", ("arena",)),
    "repro_exec_arena_grows_total": ("counter", ("arena",)),
    "repro_exec_map_seconds": ("histogram", ()),
    "repro_exec_maps_total": ("counter", ("backend",)),
    "repro_exec_pool_generation": ("gauge", ("backend",)),
    "repro_exec_pool_spawns_total": ("counter", ("backend",)),
    "repro_exec_pool_workers": ("gauge", ("backend",)),
    "repro_graph_version": ("gauge", ()),
    "repro_iterations": ("gauge", ()),
    "repro_kernel_batch_seconds": ("histogram", ()),
    "repro_kernel_batches_total": ("counter", ("kernel",)),
    "repro_mutated_edges_total": ("counter", ("op",)),
    "repro_mutations_total": ("counter", ()),
    "repro_partition_refreshes_total": ("counter", ("strategy",)),
    "repro_penalty_time": ("gauge", ()),
    "repro_phases_total": ("counter", ("mode",)),
    "repro_restores_total": ("counter", ()),
    "repro_rollbacks_total": ("counter", ()),
    "repro_schedule_cells_invalidated_total": ("counter", ()),
    "repro_simulated_time_breakdown": ("gauge", ("component",)),
    "repro_simulated_time_total": ("gauge", ()),
    "repro_step_compute_time": ("histogram", ()),
    "repro_steps_total": ("counter", ()),
    "repro_vertices_processed": ("gauge", ()),
}

# what every engine run emits and exports
_RUN_KINDS = {"exec_map_begin", "exec_map_end", "kernel_batch",
              "phase_begin", "phase_end", "run_end", "step_begin",
              "step_end", "sync_update"}
_RUN_FAMILIES = {
    "repro_comm_bytes_total", "repro_comm_messages_total",
    "repro_edges_traversed", "repro_exec_map_seconds",
    "repro_exec_maps_total", "repro_iterations",
    "repro_kernel_batch_seconds", "repro_kernel_batches_total",
    "repro_penalty_time", "repro_phases_total",
    "repro_simulated_time_breakdown", "repro_simulated_time_total",
    "repro_step_compute_time", "repro_steps_total",
    "repro_vertices_processed",
}
_DEP = {"dep_transfer"}
_DEP_FAMILIES = {"repro_dep_transfer_bytes_total",
                 "repro_dep_transfers_total"}

#: run -> (its RunConfig fields, kinds it emits, families it exports)
RUNS = {
    "symple": (
        dict(algorithm="bfs"),
        _RUN_KINDS | _DEP | {"implicit_record"},
        _RUN_FAMILIES | _DEP_FAMILIES,
    ),
    "gemini": (
        dict(engine="gemini", algorithm="bfs"),
        _RUN_KINDS | {"implicit_record"},
        _RUN_FAMILIES,
    ),
    "async_bfs": (
        dict(algorithm="bfs", mode="async", seed=3),
        _RUN_KINDS | _DEP | {"implicit_record", "bucket_begin",
                             "bucket_end"},
        _RUN_FAMILIES | _DEP_FAMILIES | {"repro_async_activations_total",
                                         "repro_buckets_total"},
    ),
    "faulted_kcore": (
        dict(algorithm="kcore", faults=FaultPlan.single_crash(1, 2),
             checkpoint_interval=2),
        _RUN_KINDS | _DEP | {"checkpoint", "crash", "restore",
                             "rollback"},
        _RUN_FAMILIES | _DEP_FAMILIES | {
            "repro_checkpoint_bytes_total", "repro_checkpoints_total",
            "repro_crashes_total", "repro_restores_total",
            "repro_rollbacks_total",
        },
    ),
    "process": (
        dict(algorithm="kcore", executor="process", workers=2),
        _RUN_KINDS | _DEP | {"exec_arena_grow", "exec_pool_spawn"},
        _RUN_FAMILIES | _DEP_FAMILIES | {
            "repro_exec_arena_bytes", "repro_exec_arena_grows_total",
            "repro_exec_pool_generation", "repro_exec_pool_spawns_total",
            "repro_exec_pool_workers",
        },
    ),
    "mutate": (
        dict(algorithm="bfs"),
        _RUN_KINDS | _DEP | {"implicit_record", "mutation_apply",
                             "partition_refresh"},
        _RUN_FAMILIES | _DEP_FAMILIES | {
            "repro_graph_version", "repro_mutated_edges_total",
            "repro_mutations_total", "repro_partition_refreshes_total",
            "repro_schedule_cells_invalidated_total",
        },
    ),
}


def graph():
    return to_undirected(erdos_renyi(300, 1800, seed=7))


def run_hub(name, path=None):
    """Run ``name`` of :data:`RUNS` with a traced hub; returns the hub.

    The ``mutate`` run runs once, applies one batch and runs again on
    the refreshed partition.
    """
    fields = RUNS[name][0]
    hub = ObsHub(tracer=Tracer(path=path))
    config = RunConfig(machines=MACHINES, obs=hub, **fields)
    with Session(graph(), config) as session:
        session.run()
        if name == "mutate":
            session.mutate(
                MutationBatch.inserts([(0, 40), (40, 0), (1, 2)]), obs=hub
            )
            session.run()
    hub.close()
    return hub


@pytest.mark.parametrize("name", sorted(RUNS))
def test_event_kinds_and_keys(name):
    hub = run_hub(name)
    emitted = {(e["kind"], tuple(sorted(e))) for e in hub.tracer.events}
    assert emitted == {(kind, KEYS[kind]) for kind in RUNS[name][1]}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_metric_families(name):
    registry = run_hub(name).metrics
    exported = {
        (m["name"], m["kind"], registry.get(m["name"]).label_names)
        for m in registry.export_json()["metrics"]
    }
    assert exported == {(n,) + FAMILIES[n] for n in RUNS[name][2]}


def test_every_kind_and_family_is_pinned_by_a_run():
    assert set().union(*(kinds for _, kinds, _ in RUNS.values())) == set(KEYS)
    assert set().union(*(fams for _, _, fams in RUNS.values())) \
        == set(FAMILIES)

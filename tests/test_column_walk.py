"""A circulant phase mapped as one walk books what its steps do one by one.

The circulant pull maps its table's items — one per destination
partition — and walks each over every step of the phase
(:func:`repro.exec.work.pull_walk`, the one pull task), then merges the
walked steps in step order.  Under a fault controller the same walk is
mapped over ``steps=(s, s + 1)``, one step a map, the dependency state
kept by the parent between maps.  An inert
controller (a plan with no fault in it) takes that one-step form and
changes nothing else, so the two forms must leave the same digest,
counters, step records, ordered send log, scanned units and engine
events; only the executor's own events (``exec_*``: one map per phase
against one per step, and the arena growth the map sizes cause) and the
number of blocks differ — a walk scans the plain lanes of all its steps
together, so a map of one step can only take more blocks.
"""

import numpy as np
import pytest

from repro import RunConfig, Session, api, rmat
from repro.algorithms.cc import _min_slot, cc_signal
from repro.engine import SympleGraphEngine, SympleOptions
from repro.exec import ProcessPoolExecutor, SerialExecutor
from repro.fault import FaultPlan
from repro.fault.injector import FaultController
from repro.graph import CSRGraph, to_undirected
from repro.obs.tracer import Tracer
from repro.partition import OutgoingEdgeCut

MACHINES = 6
ALGORITHMS = ("bfs", "kcore", "mis", "pagerank", "cc", "sampling")
STEP_FIELDS = ("high_edges", "low_edges", "high_vertices", "low_vertices",
               "update_bytes", "dep_bytes", "slowdown")


def _skewed():
    """Self-loops, multi-edges and isolated vertices (ids past the
    rmat's), over an undirected rmat."""
    base = to_undirected(rmat(scale=6, edge_factor=6, seed=3))
    src, dst = base.edge_array()
    loops = np.arange(0, base.num_vertices, 5)
    twice = np.arange(0, src.size, 7)
    return CSRGraph(
        base.num_vertices + 9,
        np.concatenate([src, loops, src[twice]]),
        np.concatenate([dst, loops, dst[twice]]),
    )


def _tiny():
    """Fewer vertices than machines: most columns are empty."""
    return CSRGraph(4, [0, 1, 1, 2, 3, 3, 2], [1, 0, 2, 1, 3, 2, 3])


GRAPHS = {"skewed": _skewed, "p>n": _tiny}


@pytest.fixture(scope="module")
def executors():
    made = {
        "serial": SerialExecutor(),
        "process-1": ProcessPoolExecutor(1),
        "process-2": ProcessPoolExecutor(2),
    }
    yield made
    for ex in made.values():
        ex.close()


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in GRAPHS.items()}


def _events(tracer):
    return [
        {k: v for k, v in e.items() if k != "seq" and k != "seconds"}
        for e in tracer.events if not e["kind"].startswith("exec_")
    ]


def observed(monkeypatch, graph, executor, stepwise, **overrides):
    """What a traced run leaves behind, walked per phase or per step."""
    engines = []
    make = api.make_engine

    def recording(*args, **kwargs):
        # the module's executor in place of the session's own
        engine = make(*args, **{**kwargs, "executor": executor})
        engine.network.trace = True
        if stepwise:
            engine.attach_faults(
                FaultController(FaultPlan(seed=0), engine.num_machines)
            )
        engines.append(engine)
        return engine

    tracer = Tracer()
    scan = dict(executor.scan)
    with monkeypatch.context() as patch:
        patch.setattr(api, "make_engine", recording)
        config = RunConfig(**{"machines": MACHINES, "seed": 2,
                              "bfs_roots": 2, "kcore_k": 3, "obs": tracer,
                              **overrides})
        with Session(graph, config) as session:
            result = session.run()
    engine = engines[-1]
    maps = sum(e["kind"] == "exec_map_begin" for e in tracer.events)
    phases = sum(e["kind"] == "phase_begin" for e in tracer.events)
    return {
        "digest": result.digest(),
        "summary": engine.counters.summary(),
        "steps": [
            [
                {name: (getattr(step, name).dtype.str,
                        getattr(step, name).tobytes())
                 for name in STEP_FIELDS}
                for step in record.steps
            ]
            for record in engine.counters.iterations
        ],
        "log": list(engine.network.log),
        "events": _events(tracer),
        "scan": {k: executor.scan[k] - scan[k] for k in ("blocks", "units")},
        "time": engine.execution_time(),
    }, maps, phases


class TestWalkEqualsSteps:
    @pytest.mark.parametrize("graph_name", GRAPHS)
    @pytest.mark.parametrize("ex", ["serial", "process-1", "process-2"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_field_by_field(self, monkeypatch, executors, graphs,
                            algorithm, ex, graph_name):
        graph, executor = graphs[graph_name], executors[ex]
        walked, maps, phases = observed(
            monkeypatch, graph, executor, False, algorithm=algorithm
        )
        stepped, step_maps, _ = observed(
            monkeypatch, graph, executor, True, algorithm=algorithm
        )
        for key in walked:
            if key != "scan":
                assert walked[key] == stepped[key], key
        assert walked["scan"]["units"] == stepped["scan"]["units"]
        assert walked["scan"]["blocks"] <= stepped["scan"]["blocks"]
        assert maps == phases  # one map a phase, whatever its schedule
        assert step_maps >= maps

    @pytest.mark.parametrize("ex", ["serial", "process-2"])
    def test_empty_dependency_lanes(self, monkeypatch, executors, ex):
        """BFS at p = 8 on an R-MAT whose late bottom-up pulls hold only
        low-degree vertices: no step of those phases has a dependency
        lane to walk, and both forms still book the same."""
        graph = to_undirected(rmat(scale=8, edge_factor=4, seed=2))
        run = dict(algorithm="bfs", machines=8)
        walked, _, _ = observed(monkeypatch, graph, executors[ex], False,
                                **run)
        stepped, _, _ = observed(monkeypatch, graph, executors[ex], True,
                                 **run)
        scan = walked.pop("scan"), stepped.pop("scan")
        assert walked == stepped
        assert scan[0]["units"] == scan[1]["units"]

        def booked(step, name):
            dtype, data = step[name]
            return np.frombuffer(data, dtype=dtype)

        plain_only = [
            steps for steps in walked["steps"] if len(steps) == 8
            and not any(booked(step, "high_vertices").any()
                        for step in steps)
            and any(booked(step, "low_vertices").any() for step in steps)
        ]
        assert len(plain_only) >= 2

    @pytest.mark.parametrize("ex", ["serial", "process-2"])
    @pytest.mark.parametrize("algorithm", ["bfs", "kcore", "cc"])
    def test_differentiated_off(self, monkeypatch, executors, graphs,
                                algorithm, ex):
        run = dict(algorithm=algorithm,
                   options=SympleOptions(differentiated=False))
        walked, _, _ = observed(
            monkeypatch, graphs["skewed"], executors[ex], False, **run
        )
        stepped, _, _ = observed(
            monkeypatch, graphs["skewed"], executors[ex], True, **run
        )
        assert walked == stepped

    @pytest.mark.parametrize("ex", ["serial", "process-2"])
    @pytest.mark.parametrize("share", [True, False])
    def test_share_dep_data(self, executors, graphs, ex, share):
        """A carried value that circulates, and the same signal with
        only its control bit travelling."""
        graph = graphs["skewed"]
        labels = []
        for stepwise in (False, True):
            engine = SympleGraphEngine(
                OutgoingEdgeCut().partition(graph, MACHINES),
                executor=executors[ex],
            )
            engine.network.trace = True
            if stepwise:
                engine.attach_faults(
                    FaultController(FaultPlan(seed=0), MACHINES)
                )
            state = engine.new_state()
            state.set("label", np.arange(graph.num_vertices))
            active = graph.in_degrees() > 0
            for _ in range(3):
                engine.pull(cc_signal, _min_slot, state, active,
                            share_dep_data=share)
            labels.append((
                state.label.tobytes(), engine.counters.summary(),
                list(engine.network.log),
                [[step.dep_bytes.tolist() for step in record.steps]
                 for record in engine.counters.iterations],
            ))
        assert labels[0] == labels[1]


class TestOneMapPerPhase:
    def test_warm_kcore_on_the_process_executor(self, graphs):
        config = RunConfig(machines=MACHINES, algorithm="kcore", kcore_k=3,
                           executor="process", workers=2)
        with Session(graphs["skewed"], config) as session:
            session.run()  # cold: spawns the pool
            tracer = Tracer()
            session.run(obs=tracer)
            assert session.executor_stats()["process:2"]["spawns"] == 1
        kinds = [e["kind"] for e in tracer.events]
        pulls = [e for e in tracer.events
                 if e["kind"] == "phase_begin" and e["mode"] == "pull"]
        maps = [e for e in tracer.events if e["kind"] == "exec_map_begin"]
        assert pulls and len(maps) == len(pulls) == kinds.count("phase_begin")
        assert all(e["step"] == 0 and e["tasks"] == MACHINES for e in maps)
        # the map comes before the phase's first step is booked
        for phase in range(len(pulls)):
            at = [i for i, e in enumerate(tracer.events)
                  if e.get("phase") == phase]
            first = [tracer.events[i]["kind"] for i in at]
            assert first.index("exec_map_end") < first.index("step_begin")

"""The Session/RunConfig entry point and its post-redesign surface.

Covers: RunConfig construction, validation, replace(), and
to_dict/from_dict round-trips (including the async mode);
Session caching, overrides, lifecycle; and the hard removal of the
legacy surfaces (``run_algorithm``, extended-positional
``make_engine``) retired by the registry redesign.
"""

import pytest

from repro.algorithms import bfs
from repro.api import RunConfig, Session
from repro.engine import SympleOptions, make_engine
from repro.errors import EngineError, GraphError, UnsupportedAlgorithmError
from repro.exec import SerialExecutor
from repro.fault import FaultPlan
from repro.graph import CSRGraph, erdos_renyi, to_undirected
from repro.partition import OutgoingEdgeCut
from repro.runtime import CostModel


@pytest.fixture(scope="module")
def graph():
    return to_undirected(erdos_renyi(48, 220, seed=4))


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.engine == "symple"
        assert config.algorithm == "bfs"
        assert config.machines == 16
        assert config.executor == "serial"
        assert config.checkpoint_interval == 0
        assert not config.faulted

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunConfig().machines = 8

    def test_replace_returns_new_validated_config(self):
        base = RunConfig(machines=4)
        other = base.replace(machines=8, algorithm="kcore")
        assert base.machines == 4
        assert (other.machines, other.algorithm) == (8, "kcore")
        with pytest.raises(EngineError):
            base.replace(machines=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "nope"},
            {"algorithm": "nope"},
            {"machines": 0},
            {"engine": "gemini", "options": SympleOptions()},
            {"executor": "gpu"},
            {"workers": 0},
            {"mode": "eventual"},
            {"engine": "dgalois", "mode": "async"},
            {"mode": "async", "algorithm": "kmeans"},
            {"checkpoint_interval": -1},
            {"executor": SerialExecutor()},  # a kind, never an instance
            {"checkpoint_interval": 1.5},
            {"sources": (1.5, "2")},  # never truncated to (1, 2)
            {"sources": (True,)},
            {"verify": "loud"},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(EngineError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"machines": 2.5},
            {"machines": True},  # a bool is no count
            {"machines": -1},
            {"seed": 1.5},
            {"seed": "7"},
            {"seed": -1},
            {"bfs_roots": 1.5},
            {"bfs_roots": 0},
            {"bfs_roots": -2},
            {"kcore_k": 2.5},
            {"kcore_k": 0},
            {"kmeans_rounds": 0.5},
            {"kmeans_rounds": -1},
            {"workers": 1.5, "executor": "process"},
            {"workers": -3},
        ],
    )
    def test_counts_are_integers_in_range(self, kwargs):
        """Refused when built, with the field named: never truncated,
        and never an untyped error at run time."""
        name = next(iter(kwargs))
        with pytest.raises(EngineError, match=f"{name} must be an integer"):
            RunConfig(**kwargs)

    def test_counts_accept_numpy_integers_and_bounds(self):
        import numpy as np

        config = RunConfig(machines=np.int64(4), seed=0, bfs_roots=1,
                           kcore_k=1, kmeans_rounds=1, workers=1)
        assert config.machines == 4

    @pytest.mark.parametrize("workers", [-3, 0, 1.5, True])
    @pytest.mark.parametrize("kind", ["serial", "process"])
    def test_executor_refuses_bad_worker_counts(self, kind, workers):
        from repro.exec import make_executor

        with pytest.raises(EngineError, match="workers must be an integer"):
            make_executor(kind, workers)

    def test_faulted_requires_resumable_algorithm(self):
        with pytest.raises(UnsupportedAlgorithmError):
            RunConfig(algorithm="scc", faults=FaultPlan.dep_loss(0.1))
        with pytest.raises(UnsupportedAlgorithmError):
            RunConfig(algorithm="scc", checkpoint_interval=1)

    def test_faulted_property(self):
        assert RunConfig(faults=FaultPlan.dep_loss(0.1)).faulted
        assert RunConfig(checkpoint_interval=2).faulted
        assert not RunConfig(faults=FaultPlan(seed=1)).faulted  # empty plan

    def test_checkpointing_validation(self):
        for bad in (-1, 1.5, True, None):
            with pytest.raises(EngineError, match="checkpoint_interval"):
                RunConfig(checkpoint_interval=bad)

    def test_round_trip(self):
        config = RunConfig(
            engine="symple",
            algorithm="kcore",
            machines=8,
            seed=9,
            options=SympleOptions(degree_threshold=4),
            faults=FaultPlan.dep_loss(0.25, seed=3),
            checkpoint_interval=2,
            executor="process",
            workers=2,
            kcore_k=3,
        )
        payload = config.to_dict()
        restored = RunConfig.from_dict(payload)
        assert restored.to_dict() == payload
        assert restored.options == config.options
        assert restored.checkpoint_interval == 2
        assert restored.faults.to_dict() == config.faults.to_dict()

    def test_round_trip_async_mode(self):
        config = RunConfig(algorithm="sssp", mode="async")
        payload = config.to_dict()
        assert payload["mode"] == "async"
        restored = RunConfig.from_dict(payload)
        assert restored.mode == "async"
        assert restored.to_dict() == payload

    def test_from_dict_accepts_pre_async_payloads(self):
        # payloads saved before the mode knobs existed must still load
        payload = RunConfig(algorithm="kcore", kcore_k=2).to_dict()
        del payload["mode"]
        restored = RunConfig.from_dict(payload)
        assert restored.mode == "sync"

    def test_digests_are_pinned(self):
        """Serve dedup and the serve_hot replay key on these digests:
        a config keeps its digest across validation rewrites (a field
        added or removed changes every payload, so it re-pins them)."""
        assert RunConfig().digest() == (
            "81729f722bda9c9628861a4f6b4d8e0d6b8336dbe040b2bd8bf8c9dc34ac673d"
        )
        served = RunConfig.from_dict({
            "engine": "symple", "algorithm": "bfs", "machines": 4,
            "seed": 7, "sources": [3],
        })
        assert served.digest() == (
            "02f49428850ea432a0ab038bf0d6795b79d94b68c6e1183281c00f05497a48cf"
        )
        every_block = RunConfig(
            algorithm="sssp", machines=8, seed=9,
            options=SympleOptions(degree_threshold=4, schedule="naive"),
            faults=FaultPlan.dep_loss(0.25, seed=3),
            checkpoint_interval=2, executor="process", workers=2,
            verify="warn", sources=(4, 1), mode="async",
        )
        assert every_block.digest() == (
            "f533cf8ff6974656fea27a23902043d7a12ba2722a98c254860ca231ce6a85ea"
        )

    def test_executor_instance_is_refused(self):
        """``executor`` names a kind the session owns; an instance goes
        to ``make_engine(executor=...)``, the low-level path."""
        ex = SerialExecutor()
        with pytest.raises(EngineError, match="unknown executor"):
            RunConfig(executor=ex)
        with pytest.raises(EngineError, match="unknown executor"):
            RunConfig().replace(executor=ex)

    def test_cost_model_is_not_a_config_field(self, graph):
        """A run prices with its engine's own model; another model
        prices an engine the caller drives."""
        with pytest.raises(TypeError, match="cost_model"):
            RunConfig(cost_model=CostModel())
        engine = make_engine("symple", graph, 4)
        bfs(engine, 0)
        dearer = CostModel(edge_cost=2 * engine.default_cost.edge_cost)
        assert engine.execution_time(dearer) > engine.execution_time()


class TestSession:
    def test_run_with_overrides(self, graph):
        with Session(graph, RunConfig(machines=4, bfs_roots=1)) as session:
            a = session.run()
            b = session.run(algorithm="kcore", kcore_k=2)
        assert a.algorithm == "bfs"
        assert b.algorithm == "kcore"
        assert a.num_machines == 4

    def test_run_many(self, graph):
        configs = [
            RunConfig(machines=4, bfs_roots=1, seed=s) for s in (1, 2)
        ]
        with Session(graph) as session:
            results = session.run_many(configs)
        assert len(results) == 2

    def test_partition_cache_reused(self, graph):
        with Session(graph, RunConfig(machines=4, bfs_roots=1)) as session:
            session.run()
            first = dict(session._partitions)
            session.run(algorithm="mis")
            assert session._partitions == first

    def test_runs_build_engines_through_one_path(self, graph, monkeypatch):
        """Session.run and engine_context build engines through the
        module's make_engine, on the partition partition_strategy names."""
        import repro.api as api

        built = []

        def spy(kind, target, machines, **kwargs):
            engine = make_engine(kind, target, machines, **kwargs)
            built.append((kind, engine.partition.kind))
            return engine

        monkeypatch.setattr(api, "make_engine", spy)
        with Session(graph, RunConfig(machines=4, bfs_roots=1)) as session:
            session.run()
            session.run(engine="dgalois")
            with session.engine_context(engine="gemini"):
                pass
        assert built == [
            ("symple", OutgoingEdgeCut.name),
            ("dgalois", "cartesian-vertex-cut"),
            ("gemini", OutgoingEdgeCut.name),
        ]

    def test_closed_session_rejects_runs(self, graph):
        session = Session(graph)
        session.close()
        with pytest.raises(EngineError):
            session.run()

    def test_digest_distinguishes_configs(self, graph):
        with Session(graph, RunConfig(machines=4, bfs_roots=1)) as session:
            assert session.run().digest() == session.run().digest()
            assert session.run().digest() != session.run(seed=5).digest()

    @pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
    def test_no_root_to_draw_is_a_graph_error(self, algorithm):
        edgeless = CSRGraph.from_edges(6, [])
        config = RunConfig(machines=2, algorithm=algorithm)
        with Session(edgeless, config) as session:
            with pytest.raises(GraphError, match=f"^{algorithm}: the graph"):
                session.run()

    @pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
    def test_sources_out_of_range_are_an_engine_error(self, graph,
                                                      algorithm):
        """The error ``RunConfig.sources`` raises for a bad id."""
        n = graph.num_vertices
        config = RunConfig(machines=4, algorithm=algorithm, sources=(3, n))
        with Session(graph, config) as session:
            with pytest.raises(EngineError,
                               match=rf"^{algorithm}: sources \[{n}\]"):
                session.run()


class TestLegacySurfaceRemoved:
    """The PR-5-deprecated wrappers are gone, not just warning."""

    def test_run_algorithm_is_gone(self):
        import repro
        import repro.bench

        assert not hasattr(repro.bench, "run_algorithm")
        assert not hasattr(repro, "run_algorithm")
        with pytest.raises(ImportError):
            from repro.bench import run_algorithm  # noqa: F401

    def test_make_engine_rejects_extended_positionals(self, graph):
        partition = OutgoingEdgeCut().partition(graph, 4)
        with pytest.raises(TypeError):
            # old pile: options (and cost_model, obs) by position
            make_engine("symple", partition, 4, SympleOptions())

    def test_make_engine_rejects_options_for_non_symple(self, graph):
        with pytest.raises(EngineError, match="SympleGraph knob"):
            make_engine("gemini", graph, 4, options=SympleOptions())

    def test_make_engine_validates_machine_count(self, graph):
        with pytest.raises(EngineError):
            make_engine("symple", graph, 0)


class TestSessionLifecycle:
    """PR 7 satellites: idempotent close + finalizer-backed cleanup."""

    def test_close_is_idempotent(self, graph):
        session = Session(graph)
        session.run(RunConfig(machines=4, bfs_roots=1))
        session.close()
        session.close()  # must not raise or double-free
        assert not session._finalizer.alive

    def test_close_releases_executors(self, graph):
        session = Session(graph)
        session.run(
            RunConfig(machines=4, bfs_roots=1, executor="process", workers=2)
        )
        assert session._executors
        session.close()
        assert not session._executors

    def test_one_process_pool_per_session(self, graph):
        """A run naming another worker count replaces the pool."""
        with Session(graph) as session:
            first = session._executor(
                RunConfig(machines=4, executor="process", workers=2)
            )
            digests = {
                session.run(RunConfig(machines=4, bfs_roots=1,
                                      executor="process",
                                      workers=w)).digest()
                for w in (1, 2, 1)
            }
            assert len(digests) == 1
            assert list(session._executors) == [("process", 1)]
            assert first._pool is None  # closed when it was replaced

    def test_finalizer_runs_on_garbage_collection(self, graph):
        import gc

        closes = []
        session = Session(graph)
        ex = session._executor(RunConfig(machines=4, executor="process",
                                         workers=2))
        original_close = ex.close
        ex.close = lambda: (closes.append(True), original_close())
        finalizer = session._finalizer
        del session, ex
        gc.collect()
        # an interrupted run (no explicit close) must not leak pools
        assert not finalizer.alive
        assert closes

    def test_exit_after_manual_close_is_safe(self, graph):
        with Session(graph) as session:
            session.run(RunConfig(machines=4, bfs_roots=1))
            session.close()
        # __exit__ called close() a second time; nothing raised


class TestSessionThreadSafety:
    """PR 7 satellite: concurrent Session.run from multiple threads."""

    def test_concurrent_runs_are_bit_identical(self, graph):
        import threading

        config = RunConfig(machines=4, bfs_roots=1)
        with Session(graph) as session:
            reference = session.run(config).digest()
            digests = [None] * 8
            errors = []

            def worker(i):
                try:
                    # alternate machine counts so the partition cache
                    # fills under contention, not just the run path
                    cfg = config if i % 2 == 0 else config.replace(machines=3)
                    digests[i] = (i % 2, session.run(cfg).digest())
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert None not in digests
            odd = session.run(config.replace(machines=3)).digest()
        assert {d for flavor, d in digests if flavor == 0} == {reference}
        assert {d for flavor, d in digests if flavor == 1} == {odd}
        # exactly one partition per (strategy, machines, graph version)
        # despite the race
        assert sorted(session._partitions) == [
            ("edgecut", 3, 0), ("edgecut", 4, 0),
        ]

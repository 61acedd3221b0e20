"""The Session/RunConfig entry point and its post-redesign surface.

Covers: RunConfig construction, validation, replace(), and
to_dict/from_dict round-trips (including the async-mode knobs);
Session caching, overrides, lifecycle; and the hard removal of the
legacy surfaces (``run_algorithm``, extended-positional
``make_engine``) retired by the registry redesign.
"""

import pytest

from repro.api import Checkpointing, RunConfig, Session
from repro.engine import SympleOptions, make_engine
from repro.errors import EngineError, UnsupportedAlgorithmError
from repro.exec import ProcessPoolExecutor, SerialExecutor
from repro.fault import FaultPlan
from repro.graph import erdos_renyi, to_undirected
from repro.partition import OutgoingEdgeCut


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
        assert config.checkpointing == Checkpointing()
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
            {"async_bucket_width": 2.0},  # only valid with mode="async"
            {"mode": "async", "async_bucket_width": 0.0},
            {"mode": "async", "async_bucket_width": -1.0},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(EngineError):
            RunConfig(**kwargs)

    def test_faulted_requires_resumable_algorithm(self):
        with pytest.raises(UnsupportedAlgorithmError):
            RunConfig(algorithm="scc", faults=FaultPlan.dep_loss(0.1))
        with pytest.raises(UnsupportedAlgorithmError):
            RunConfig(
                algorithm="scc", checkpointing=Checkpointing(interval=1)
            )

    def test_faulted_property(self):
        assert RunConfig(faults=FaultPlan.dep_loss(0.1)).faulted
        assert RunConfig(checkpointing=Checkpointing(interval=2)).faulted
        assert not RunConfig(faults=FaultPlan(seed=1)).faulted  # empty plan

    def test_checkpointing_validation(self):
        with pytest.raises(EngineError):
            Checkpointing(interval=-1)
        with pytest.raises(EngineError):
            Checkpointing(retention=0)

    def test_round_trip(self):
        config = RunConfig(
            engine="symple",
            algorithm="kcore",
            machines=8,
            seed=9,
            options=SympleOptions(degree_threshold=4),
            faults=FaultPlan.dep_loss(0.25, seed=3),
            checkpointing=Checkpointing(interval=2, retention=3),
            executor="process",
            workers=2,
            kcore_k=3,
        )
        payload = config.to_dict()
        restored = RunConfig.from_dict(payload)
        assert restored.to_dict() == payload
        assert restored.options == config.options
        assert restored.checkpointing == config.checkpointing
        assert restored.faults.to_dict() == config.faults.to_dict()

    def test_round_trip_async_mode(self):
        config = RunConfig(
            algorithm="sssp", mode="async", async_bucket_width=2.5
        )
        payload = config.to_dict()
        assert payload["mode"] == "async"
        assert payload["async_bucket_width"] == 2.5
        restored = RunConfig.from_dict(payload)
        assert restored.mode == "async"
        assert restored.async_bucket_width == 2.5
        assert restored.to_dict() == payload

    def test_from_dict_accepts_pre_async_payloads(self):
        # payloads saved before the mode knobs existed must still load
        payload = RunConfig(algorithm="kcore", kcore_k=2).to_dict()
        del payload["mode"]
        del payload["async_bucket_width"]
        restored = RunConfig.from_dict(payload)
        assert restored.mode == "sync"
        assert restored.async_bucket_width is None

    def test_to_dict_serializes_executor_instance_as_kind(self):
        ex = ProcessPoolExecutor(2)
        try:
            config = RunConfig(executor=ex)
            assert config.to_dict()["executor"] == "process"
        finally:
            ex.close()


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

    def test_closed_session_rejects_runs(self, graph):
        session = Session(graph)
        session.close()
        with pytest.raises(EngineError):
            session.run()

    def test_caller_owned_executor_not_closed(self, graph):
        ex = SerialExecutor()
        closes = []
        original_close = ex.close
        ex.close = lambda: (closes.append(True), original_close())
        config = RunConfig(machines=4, bfs_roots=1, executor=ex)
        with Session(graph, config) as session:
            session.run()
        # the session must not close an executor it did not create
        assert not closes
        ex.close()

    def test_digest_distinguishes_configs(self, graph):
        with Session(graph, RunConfig(machines=4, bfs_roots=1)) as session:
            assert session.run().digest() == session.run().digest()
            assert session.run().digest() != session.run(seed=5).digest()


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

    def test_removed_dep_loss_options_name_fault_plan(self):
        with pytest.raises(EngineError, match="FaultPlan.dep_loss"):
            SympleOptions(dep_loss_rate=0.1)


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

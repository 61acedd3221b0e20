"""The algorithm registry: specs, derivation, and harness dispatch.

The registry is the single source of truth the entry point, CLI,
signal-UDF corpus, and serve batch planner all derive from.  These
tests pin the derived views, the spec invariants, and that every
runnable spec actually dispatches through ``Session.run`` — including
the algorithms (cc, pagerank, scc, sssp) the old hand-maintained
tuples silently rejected.
"""

import pytest

from repro.algorithms import ALGORITHMS, SIGNAL_UDFS
from repro.algorithms.registry import (
    AlgorithmSpec,
    algorithm_names,
    all_specs,
    async_algorithms,
    fixpoint_digest,
    get_spec,
    register,
    signal_udfs,
    sourced_algorithms,
)
from repro.api import RunConfig, Session
from repro.errors import EngineError
from repro.graph import random_weights


class TestRegistryContents:
    def test_runnable_algorithms(self):
        assert ALGORITHMS == (
            "bfs", "cc", "kcore", "kmeans", "mis",
            "pagerank", "sampling", "scc", "sssp",
        )
        assert ALGORITHMS == algorithm_names()

    def test_signal_only_specs_listed_but_not_runnable(self):
        names = {spec.name for spec in all_specs()}
        assert {"incremental-bfs", "incremental-cc"} <= names
        assert not get_spec("incremental-bfs").runnable
        assert "incremental-bfs" not in ALGORITHMS

    def test_derived_views(self):
        assert sourced_algorithms() == ("bfs", "sssp")
        assert async_algorithms() == ("bfs", "cc", "sssp")

    def test_signal_udfs_cover_every_spec_with_signals(self):
        udfs = signal_udfs()
        assert SIGNAL_UDFS == udfs
        for spec in all_specs():
            if spec.signals:
                assert udfs[spec.name] == spec.signals

    def test_unknown_name_rejected_with_choices(self):
        with pytest.raises(EngineError, match="bfs"):
            get_spec("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(EngineError, match="already registered"):
            register(AlgorithmSpec(name="bfs"))

    def test_spec_mode_validation(self):
        with pytest.raises(EngineError, match="unknown mode"):
            AlgorithmSpec(name="x", modes=("eventual",))


class TestFixpointDigest:
    def test_covers_values_and_dtype(self):
        import numpy as np

        a = np.arange(8, dtype=np.int64)
        assert fixpoint_digest(a) == fixpoint_digest(a.copy())
        assert fixpoint_digest(a) != fixpoint_digest(a.astype(np.int32))
        b = a.copy()
        b[3] = 99
        assert fixpoint_digest(a) != fixpoint_digest(b)

    def test_multiple_arrays_order_sensitive(self):
        import numpy as np

        a, b = np.zeros(4), np.ones(4)
        assert fixpoint_digest(a, b) != fixpoint_digest(b, a)


class TestHarnessDispatch:
    """Every runnable spec executes through Session.run."""

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_all_algorithms_dispatch(self, tiny_graph, algo):
        graph = tiny_graph
        if algo == "sssp":
            graph = random_weights(graph, seed=1)
        config = RunConfig(
            engine="symple", algorithm=algo, machines=4, bfs_roots=1,
            kcore_k=2,
        )
        with Session(graph, config) as session:
            result = session.run()
        assert result.algorithm == algo
        assert result.simulated_time > 0

    def test_first_class_newcomers_report_extras(self, tiny_graph):
        with Session(tiny_graph) as session:
            cc = session.run(RunConfig(algorithm="cc", machines=4))
            pr = session.run(RunConfig(algorithm="pagerank", machines=4))
            scc = session.run(RunConfig(algorithm="scc", machines=4))
        assert cc.extra["components"] >= 1
        assert cc.fixpoint is not None
        assert pr.extra["residual"] >= 0
        assert pr.extra["activations"] > 0
        assert scc.extra["components"] >= 1
        assert scc.fixpoint is not None

    def test_fixpoint_recorded_in_result_dict(self, tiny_graph):
        config = RunConfig(algorithm="bfs", machines=4, bfs_roots=1)
        with Session(tiny_graph, config) as session:
            result = session.run()
        assert result.fixpoint is not None
        assert result.to_dict()["fixpoint"] == result.fixpoint

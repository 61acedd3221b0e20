"""Small utilities and error paths not covered elsewhere."""

import numpy as np
import pytest

from repro.bench.datasets import PAPER_GRAPHS, DATASETS
from repro.bench.tables import format_ratio
from repro.analysis import analyze_signal
from repro.errors import AnalysisError, PartitionError
from repro.graph import CSRGraph
from repro.partition.base import Partition


class TestFormatting:
    def test_format_ratio(self):
        assert format_ratio(1.5) == "1.50"
        assert format_ratio(0.333333) == "0.33"


class TestPaperGraphTable:
    def test_covers_registry(self):
        assert set(PAPER_GRAPHS) == set(DATASETS)

    def test_sizes_are_strings(self):
        for v, e in PAPER_GRAPHS.values():
            assert v.endswith("M")
            assert e.endswith("B")


class TestPartitionValidation:
    def test_wrong_master_length_rejected(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        with pytest.raises(PartitionError):
            Partition(
                g,
                np.zeros(2, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                kind="broken",
            )

    def test_wrong_edge_owner_length_rejected(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(PartitionError):
            Partition(
                g,
                np.zeros(3, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.zeros(2, dtype=np.int64),
                kind="broken",
            )

    def test_negative_machine_rejected(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(PartitionError):
            Partition(
                g,
                np.array([-1, 0]),
                np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                kind="broken",
            )

    def test_negative_edge_owner_rejected(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(PartitionError, match="edge owners"):
            Partition(
                g,
                np.array([0, 0]),
                np.array([-1]),
                np.zeros(1, dtype=np.int64),
                kind="broken",
            )

    def test_num_machines_smaller_than_placement_rejected(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(PartitionError):
            Partition(
                g,
                np.array([0, 3]),
                np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                kind="broken",
                num_machines=2,
            )

    def test_validate_catches_disagreeing_owners(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        part = Partition(
            g,
            np.array([0, 1]),
            np.array([0]),
            np.array([1]),  # same edge claimed by a different machine
            kind="broken",
        )
        with pytest.raises(PartitionError):
            part.validate()


class TestAnalyzerEdgeCases:
    def test_async_udf_rejected(self):
        namespace = {}
        exec(
            "async def signal(v, nbrs, s, emit):\n"
            "    for u in nbrs:\n"
            "        break\n",
            namespace,
        )
        with pytest.raises(AnalysisError):
            analyze_signal(namespace["signal"])

    def test_default_arguments_allowed(self):
        def signal(v, nbrs, s, emit, extra=None):
            for u in nbrs:
                if s.flag[u]:
                    emit(u)
                    break

        info = analyze_signal(signal)
        assert info.has_break

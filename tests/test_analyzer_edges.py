"""Analyzer edge cases the dataflow backend must handle.

These exercise the shapes the seed's syntactic analyzer rejected or
misclassified — conditional initialization, augmented assignment,
tuple unpacking, nested defs, ``continue`` — plus the still-invalid
constructs that must keep raising, now with located messages.
"""

import numpy as np
import pytest

from repro.analysis import analyze_signal, instrument_signal
from repro.engine.dep import DepStore
from repro.errors import AnalysisError


class Bag:
    """Attribute bag standing in for the state namespace."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


class TestNewlyAccepted:
    def test_conditional_init_both_branches(self):
        """Previously rejected (two top-level writes); now analyzes with
        the right carried set — the acceptance-criterion UDF."""

        def signal(v, nbrs, s, emit):
            if s.flagged[v]:
                cnt = 1
            else:
                cnt = 0
            for u in nbrs:
                cnt += 1
                if cnt >= s.k:
                    emit(cnt - s.k)
                    break

        info = analyze_signal(signal)
        assert info.carried_vars == ("cnt",)
        assert info.has_break

    def test_conditional_init_instruments_and_splits(self):
        def signal(v, nbrs, s, emit):
            if s.flagged[v]:
                cnt = 1
            else:
                cnt = 0
            for u in nbrs:
                cnt += 1
                if cnt >= s.k:
                    emit(cnt)
                    break

        analyzed = instrument_signal(signal)
        s = Bag(flagged=np.array([True, False]), k=4)
        sequential = []
        analyzed.original(0, [10, 11, 12, 13, 14], s, sequential.append)

        store = DepStore(1, analyzed.info.carried_vars)
        split = []
        for chunk in ([10, 11], [12, 13, 14]):
            if store.skip[0]:
                break
            analyzed.instrumented(0, chunk, s, split.append, store.handle(0))
        assert split == sequential == [4]

    def test_tuple_unpacking_init(self):
        def signal(v, nbrs, s, emit):
            cnt, acc = 0, 0.0
            for u in nbrs:
                cnt += 1
                acc += s.w[u]
                if acc >= s.r[v]:
                    emit(cnt)
                    break

        info = analyze_signal(signal)
        assert info.carried_vars == ("acc", "cnt")

    def test_multiple_preloop_writes(self):
        def signal(v, nbrs, s, emit):
            acc = 0.0
            acc = acc + s.base[v]
            for u in nbrs:
                acc += s.w[u]
                if acc >= s.r[v]:
                    emit(u)
                    break

        assert analyze_signal(signal).carried_vars == ("acc",)

    def test_nested_function_scope_is_opaque(self):
        def signal(v, nbrs, s, emit):
            def scale(x):
                t = x * 2  # its own scope: no defs leak out
                return t

            acc = 0.0
            for u in nbrs:
                acc += scale(s.w[u])
                if acc >= s.r[v]:
                    emit(u)
                    break

        info = analyze_signal(signal)
        assert info.carried_vars == ("acc",)

    def test_continue_in_neighbor_loop(self):
        def signal(v, nbrs, s, emit):
            cnt = 0
            for u in nbrs:
                if not s.active[u]:
                    continue
                cnt += 1
                if cnt >= s.k:
                    emit(cnt - s.k)
                    break

        info = analyze_signal(signal)
        assert info.carried_vars == ("cnt",)
        assert info.has_break

    def test_comprehension_target_not_a_local(self):
        def signal(v, nbrs, s, emit):
            acc = 0.0
            for u in nbrs:
                acc += sum(w for w in s.w[u])
                if acc >= s.r[v]:
                    emit(u)
                    break

        assert analyze_signal(signal).carried_vars == ("acc",)


class TestPrecision:
    def test_overwritten_temp_not_carried(self):
        """Stored and loaded in the loop, but every read follows the
        same-iteration write: the dataflow backend keeps it local."""

        def signal(v, nbrs, s, emit):
            t = 0
            for u in nbrs:
                t = s.w[u]
                if t > s.k:
                    emit(t)

        assert analyze_signal(signal).carried_vars == ()


class TestStillInvalid:
    def test_nested_loop_rejected_with_location(self):
        def signal(v, nbrs, s, emit):
            for u in nbrs:
                for w in s.two_hop[u]:
                    emit(w)

        with pytest.raises(AnalysisError, match=r"nested loop at .*:\d+"):
            analyze_signal(signal)

    def test_return_in_loop_rejected_with_location(self):
        def signal(v, nbrs, s, emit):
            for u in nbrs:
                if s.flag[u]:
                    return

        with pytest.raises(AnalysisError, match=r"return at .*:\d+"):
            analyze_signal(signal)

    def test_location_points_at_this_file(self):
        def signal(v, nbrs, s, emit):
            for u in nbrs:
                for w in s.two_hop[u]:
                    emit(w)

        with pytest.raises(AnalysisError, match="test_analyzer_edges"):
            analyze_signal(signal)

    def test_try_rejected(self):
        def signal(v, nbrs, s, emit):
            cnt = 0
            try:
                cnt = 1
            except ValueError:
                pass
            for u in nbrs:
                cnt += 1
                if cnt > s.k:
                    emit(cnt)
                    break

        with pytest.raises(AnalysisError, match="Try"):
            analyze_signal(signal)

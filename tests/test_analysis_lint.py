"""Signal UDF linter."""

from repro.algorithms.bfs import bottom_up_signal
from repro.algorithms.kcore import kcore_signal
from repro.algorithms.pagerank import pagerank_signal
from repro.algorithms.sampling import sampling_signal
from repro.analysis.rules import lint_signal


def codes(messages):
    return [m.code for m in messages]


class TestCleanUDFs:
    def test_bfs_clean(self):
        assert lint_signal(bottom_up_signal) == []

    def test_kcore_delta_idiom_clean(self):
        """kcore emits (cnt - start), not cnt: no cumulative-emit."""
        assert "cumulative-emit" not in codes(lint_signal(kcore_signal))

    def test_no_loop_udf_clean(self):
        def signal(v, nbrs, s, emit):
            emit(s.x[v])

        assert lint_signal(signal) == []


class TestCumulativeEmit:
    def test_direct_accumulator_emit_flagged(self):
        def signal(v, nbrs, s, emit):
            total = 0
            for u in nbrs:
                total += 1
                if total >= s.k:
                    break
            emit(total)

        messages = lint_signal(signal)
        assert "cumulative-emit" in codes(messages)
        assert any(m.level == "warning" for m in messages)
        assert "total" in str(messages[0])

    def test_emit_inside_loop_also_flagged(self):
        def signal(v, nbrs, s, emit):
            acc = 0.0
            for u in nbrs:
                acc += s.w[u]
                if acc >= s.r[v]:
                    emit(acc)
                    break

        assert "cumulative-emit" in codes(lint_signal(signal))

    def test_sampling_emits_neighbor_not_accumulator(self):
        """sampling emits u, not the prefix sum: clean."""
        assert "cumulative-emit" not in codes(lint_signal(sampling_signal))


class TestMissingBreak:
    def test_pagerank_noted(self):
        messages = lint_signal(pagerank_signal)
        assert "missing-break" in codes(messages)
        assert all(m.level == "note" for m in messages
                   if m.code == "missing-break")

    def test_break_suppresses_note(self):
        assert "missing-break" not in codes(lint_signal(kcore_signal))

    def test_message_str_format(self):
        messages = lint_signal(pagerank_signal)
        text = str(messages[0])
        assert "[" in text and "]" in text

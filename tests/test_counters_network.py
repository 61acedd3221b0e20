"""Counters and simulated network accounting."""

import numpy as np
import pytest

from repro.errors import EngineError, ReproError
from repro.runtime import Counters, IterationRecord, SimulatedNetwork, StepRecord
from repro.runtime.counters import COMM_TAGS
from repro.runtime.network import DeliveryOutcome


class TestStepRecord:
    def test_arrays_default_to_zero(self):
        step = StepRecord(4)
        assert step.high_edges.tolist() == [0, 0, 0, 0]
        assert step.dep_bytes.tolist() == [0, 0, 0, 0]

    def test_total_edges_sums_classes(self):
        step = StepRecord(2)
        step.high_edges[:] = [3, 4]
        step.low_edges[:] = [1, 2]
        assert step.total_edges() == 10


class TestIterationRecord:
    def test_total_edges_over_steps(self):
        rec = IterationRecord()
        for edges in ([1, 2], [3, 4]):
            step = StepRecord(2)
            step.high_edges[:] = edges
            rec.steps.append(step)
        assert rec.total_edges() == 10


class TestCounters:
    def test_tag_accounting(self):
        c = Counters(2)
        c.add_bytes("update", 100)
        c.add_bytes("dep", 10, messages=2)
        assert c.update_bytes == 100
        assert c.dep_bytes == 10
        assert c.messages_by_tag["dep"] == 2
        assert c.total_bytes == 110

    def test_unknown_tag_rejected(self):
        with pytest.raises(EngineError):
            Counters(2).add_bytes("bogus", 1)

    def test_merge(self):
        a, b = Counters(2), Counters(2)
        a.add_edges(5)
        b.add_edges(7)
        b.add_bytes("sync", 12)
        b.add_iteration(IterationRecord())
        a.merge(b)
        assert a.edges_traversed == 12
        assert a.sync_bytes == 12
        assert len(a.iterations) == 1

    def test_merge_rejects_mismatched_cluster_size(self):
        a, b = Counters(2), Counters(4)
        with pytest.raises(ReproError):
            a.merge(b)

    def test_summary_keys(self):
        summary = Counters(1).summary()
        for key in (
            "edges_traversed",
            "update_bytes",
            "dep_bytes",
            "sync_bytes",
            "total_bytes",
            "iterations",
            "messages_by_tag",
            "penalty_time",
        ):
            assert key in summary

    def test_summary_reports_messages_and_penalty(self):
        c = Counters(2)
        c.add_bytes("dep", 10, messages=3)
        c.add_penalty(42.5)
        summary = c.summary()
        assert summary["messages_by_tag"]["dep"] == 3
        assert summary["penalty_time"] == 42.5


class TestNetwork:
    def test_records_bytes_and_messages(self):
        net = SimulatedNetwork(3)
        net.send(0, 1, "update", 64)
        net.send(0, 1, "update", 36, messages=2)
        assert net.bytes_between(0, 1) == 100
        assert net.message_counts["update"][0, 1] == 3

    def test_local_transfer_free(self):
        net = SimulatedNetwork(2)
        net.send(1, 1, "update", 999)
        assert net.bytes_sent() == 0

    def test_counters_wired_through(self):
        c = Counters(2)
        net = SimulatedNetwork(2, c)
        net.send(0, 1, "dep", 5)
        assert c.dep_bytes == 5

    def test_per_machine_sent_received(self):
        net = SimulatedNetwork(3)
        net.send(0, 1, "update", 10)
        net.send(0, 2, "sync", 20)
        net.send(1, 2, "update", 5)
        assert net.per_machine_sent().tolist() == [30, 5, 0]
        assert net.per_machine_received().tolist() == [0, 10, 25]

    def test_per_tag_queries(self):
        net = SimulatedNetwork(2)
        net.send(0, 1, "update", 7)
        net.send(0, 1, "dep", 3)
        assert net.bytes_sent("update") == 7
        assert net.bytes_sent("dep") == 3
        assert net.bytes_sent() == 10

    def test_busiest_pair(self):
        net = SimulatedNetwork(3)
        net.send(0, 1, "update", 5)
        net.send(2, 0, "update", 50)
        assert net.busiest_pair() == (2, 0, 50)

    def test_invalid_machine_rejected(self):
        net = SimulatedNetwork(2)
        with pytest.raises(EngineError):
            net.send(0, 5, "update", 1)

    def test_negative_bytes_rejected(self):
        net = SimulatedNetwork(2)
        with pytest.raises(EngineError):
            net.send(0, 1, "update", -1)

    def test_unknown_tag_rejected(self):
        net = SimulatedNetwork(2)
        with pytest.raises(EngineError):
            net.send(0, 1, "gossip", 1)

    def test_zero_machines_rejected(self):
        with pytest.raises(EngineError):
            SimulatedNetwork(0)


def booked(net):
    return (
        {tag: m.tolist() for tag, m in net.traffic.items()},
        {tag: m.tolist() for tag, m in net.message_counts.items()},
        net.counters.summary(),
    )


class TestBook:
    """``book`` takes the per-``(tag, src, dst)`` sums of a list and
    books what ``send_many`` books for the list itself."""

    def sums(self, net, src, dst, tags, nbytes):
        out = np.zeros((2, *net._bytes.shape), dtype=np.int64)
        np.add.at(out[0], (tags, src, dst), 1)
        np.add.at(out[1], (tags, src, dst), nbytes)
        return out

    def test_books_what_the_list_books(self):
        listed, summed = SimulatedNetwork(3), SimulatedNetwork(3)
        args = TestSendMany.SRC, TestSendMany.DST, TestSendMany.TAGS, \
            TestSendMany.NBYTES
        listed.send_many(*args)
        summed.book(*self.sums(summed, *args))
        assert booked(summed) == booked(listed)
        assert summed.counters.messages_by_tag["ckpt"] == 1

    def test_local_cells_are_free(self):
        net = SimulatedNetwork(2)
        net.book(*self.sums(net, [0, 1, 0], [0, 1, 1], [0, 0, 0],
                            [5, 5, 3]))
        assert net.bytes_sent() == 3
        assert net.counters.messages_by_tag["update"] == 1

    @pytest.mark.parametrize("bad", ["hook", "trace", "shape", "negative"])
    def test_refuses(self, bad):
        """Under a hook or the trace log single messages are observed:
        sums would hide them.  Nothing is booked on a refusal."""
        net = SimulatedNetwork(2, trace=bad == "trace")
        if bad == "hook":
            net.delivery_hook = lambda *message: None
        sums = self.sums(net, [0], [1], [0], [4])
        if bad == "shape":
            sums = sums[:, :, :1]
        if bad == "negative":
            sums[1, 0, 0, 1] = -4
        with pytest.raises(EngineError):
            net.book(*sums)
        assert booked(net) == booked(SimulatedNetwork(2))


class TestSendMany:
    """``send_many`` books what one ``send`` per message books, and
    hands single messages to whatever observes them in list order."""

    SRC = [0, 2, 1, 0, 2, 2]
    DST = [1, 0, 1, 2, 0, 1]
    TAGS = [0, 1, 0, 2, 0, 4]  # positions in COMM_TAGS
    NBYTES = [3, 4, 5, 6, 7, 0]

    def test_books_what_sends_book(self):
        many, one = SimulatedNetwork(3), SimulatedNetwork(3)
        many.send_many(self.SRC, self.DST, self.TAGS, self.NBYTES)
        for src, dst, tag, nbytes in zip(
            self.SRC, self.DST, self.TAGS, self.NBYTES
        ):
            one.send(src, dst, COMM_TAGS[tag], nbytes)
        assert booked(many) == booked(one)
        assert many.message_counts["update"][2, 0] == 1
        assert many.counters.messages_by_tag["ckpt"] == 1

    def test_one_tag_name_for_the_list(self):
        net = SimulatedNetwork(3)
        net.send_many([0, 0, 2], [1, 1, 1], "sync", [8, 8, 16])
        assert net.traffic["sync"][0, 1] == 16
        assert net.message_counts["sync"][0, 1] == 2
        assert net.counters.sync_bytes == 32

    def test_empty_list(self):
        net = SimulatedNetwork(2)
        net.send_many([], [], "update", [])
        net.send_many(
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.int64), np.empty(0, np.int64),
        )
        assert booked(net) == booked(SimulatedNetwork(2))

    def test_local_entries_free(self):
        net = SimulatedNetwork(3, trace=True)
        seen = []
        net.delivery_hook = lambda *message: seen.append(message)
        net.send_many([1, 1, 2], [1, 2, 2], "update", [999, 7, 999])
        assert net.bytes_sent() == 7
        assert net.counters.messages_by_tag["update"] == 1
        assert seen == [(1, 2, "update", 7)]
        assert net.log == [(1, 2, "update", 7)]
        quiet = SimulatedNetwork(3)
        quiet.send_many([1, 1, 2], [1, 2, 2], "update", [999, 7, 999])
        assert booked(quiet) == booked(net)

    @pytest.mark.parametrize("bad", [
        dict(nbytes=[1, -1]),
        dict(tag="gossip"),
        dict(tag=[0, 5]),
        dict(tag=[0, -1]),
        dict(src=[0, 3]),
        dict(dst=[-1, 1]),
        dict(dst=[1]),
    ])
    def test_rejects_what_send_rejects(self, bad):
        """Checked before anything is booked."""
        net = SimulatedNetwork(3, trace=True)
        args = dict(src=[0, 1], dst=[1, 2], tag="update", nbytes=[4, 4])
        args.update(bad)
        with pytest.raises(EngineError):
            net.send_many(**args)
        assert booked(net) == booked(SimulatedNetwork(3))
        assert net.log == []

    def test_hook_sees_list_order(self):
        net = SimulatedNetwork(3)
        seen = []
        net.delivery_hook = lambda *message: seen.append(message)
        net.send_many(self.SRC, self.DST, self.TAGS, self.NBYTES)
        assert seen == [
            (src, dst, COMM_TAGS[tag], nbytes)
            for src, dst, tag, nbytes in zip(
                self.SRC, self.DST, self.TAGS, self.NBYTES
            )
            if src != dst
        ]
        assert booked(net) == booked(self._sent_one_by_one())

    def test_hook_outcomes_charged(self):
        net = SimulatedNetwork(2)
        net.delivery_hook = lambda *message: DeliveryOutcome(
            attempts=2, delay=1.5
        )
        net.send_many([0, 1], [1, 0], "update", [10, 20])
        assert net.traffic["update"].tolist() == [[0, 20], [40, 0]]
        assert net.counters.messages_by_tag["update"] == 4
        assert net.counters.penalty_time == 3.0

    def test_trace_keeps_list_order_and_limit(self):
        net = SimulatedNetwork(3, trace=True, trace_limit=3)
        net.send_many(self.SRC, self.DST, self.TAGS, self.NBYTES)
        assert net.log == [
            (0, 1, "update", 3), (2, 0, "dep", 4), (0, 2, "sync", 6),
        ]
        assert net.dropped_log_entries == 2
        assert booked(net) == booked(self._sent_one_by_one())

    def _sent_one_by_one(self):
        net = SimulatedNetwork(3)
        for src, dst, tag, nbytes in zip(
            self.SRC, self.DST, self.TAGS, self.NBYTES
        ):
            net.send(src, dst, COMM_TAGS[tag], nbytes)
        return net

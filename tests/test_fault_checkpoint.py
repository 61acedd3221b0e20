"""CheckpointStore policy, isolation, and byte accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.state import StateStore
from repro.fault import CheckpointStore, snapshot_nbytes


def make_state(n: int = 16) -> StateStore:
    s = StateStore(n)
    s.add_array("values", np.int64, 1)
    s.add_array("flags", bool, False)
    s.add_scalar("k", 3)
    return s


class TestPolicy:
    def test_disabled_store_is_never_due(self):
        store = CheckpointStore(interval=0)
        assert not store.enabled
        assert not any(store.due(i) for i in range(10))

    def test_interval_schedule(self):
        store = CheckpointStore(interval=3)
        s = make_state()
        due = []
        for i in range(7):
            if store.due(i):
                store.save(i, s, {})
                due.append(i)
        assert due == [0, 3, 6]

    def test_not_due_at_or_before_last_saved(self):
        store = CheckpointStore(interval=2)
        s = make_state()
        store.save(4, s, {})
        # a recovery replay re-enters supersteps <= 4
        assert not store.due(4) and not store.due(2)
        assert store.due(6)

    def test_keeps_the_latest_checkpoint(self):
        store = CheckpointStore(interval=1)
        s = make_state()
        first = store.save(0, s, {})
        for i in range(1, 5):
            store.save(i, s, {})
        assert store.latest().superstep == 4
        assert store.latest() is not first
        assert store.checkpoints_taken == 5  # accounting is cumulative

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CheckpointStore(interval=-1)


class TestRestoreIsolation:
    def test_restore_round_trips_state_and_ctx(self):
        store = CheckpointStore(interval=1)
        s = make_state()
        s.values[:] = 7
        store.save(2, s, {"rounds": 2, "history": ["a"]})

        s.values[:] = -1
        s.flags[:] = True
        s.k = 99
        restored = store.restore_latest(s)
        assert restored is not None
        checkpoint, ctx = restored
        assert checkpoint.superstep == 2
        assert ctx == {"rounds": 2, "history": ["a"]}
        assert np.all(s.values == 7) and not s.flags.any() and s.k == 3

    def test_replay_cannot_corrupt_snapshot(self):
        store = CheckpointStore(interval=1)
        s = make_state()
        store.save(0, s, {"trace": []})

        # mutate everything the first restore handed back...
        _, ctx = store.restore_latest(s)
        ctx["trace"].append("poison")
        s.values[:] = 123

        # ...and the second restore is untouched by it.
        _, ctx2 = store.restore_latest(s)
        assert ctx2 == {"trace": []}
        assert np.all(s.values == 1)

    def test_save_copies_live_arrays(self):
        store = CheckpointStore(interval=1)
        s = make_state()
        checkpoint = store.save(0, s, {})
        s.values[:] = 55
        assert np.all(checkpoint.state["values"] == 1)

    def test_restore_latest_empty(self):
        store = CheckpointStore(interval=2)
        assert store.restore_latest(make_state()) is None


class TestAccounting:
    def test_snapshot_nbytes(self):
        s = make_state(8)
        snap = s.snapshot()
        expected = 8 * 8 + 8 * 1 + 8  # int64 + bool arrays + scalar
        assert snapshot_nbytes(snap) == expected

    def test_store_byte_counters(self):
        store = CheckpointStore(interval=1)
        s = make_state(8)
        per = snapshot_nbytes(s.snapshot())
        store.save(0, s, {})
        store.save(1, s, {})
        store.restore_latest(s)
        assert store.bytes_written == 2 * per
        assert store.bytes_restored == per
        assert store.restores == 1

"""Shared-memory and worker-pool lifecycle of the process executor.

The parent process is the sole owner of every shared-memory segment it
creates (topology publications, adopted state arrays, delta-arena
buffers); these tests pin the ownership contract down where it is
observable — the ``/dev/shm`` listing: no segment may outlive
``Session.close()``, garbage collection of an unclosed session, or a
worker crash mid-map.  The pool itself must survive crashes by
respawning: one crash is retried transparently, a task that keeps
killing its workers raises, and the executor stays usable afterwards.
"""

import gc
import os
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import RunConfig, Session
from repro.engine.state import StateStore
from repro.errors import EngineError
from repro.exec.process import ProcessPoolExecutor
from repro.graph import erdos_renyi, to_undirected
from repro.partition import OutgoingEdgeCut

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="needs a POSIX /dev/shm"
)


def shm_entries() -> set:
    return set(os.listdir(SHM_DIR))


@pytest.fixture()
def graph():
    return to_undirected(erdos_renyi(64, 300, seed=7))


@pytest.fixture()
def bound_executor(graph):
    """A process executor bound to a real 4-machine partition."""
    partition = OutgoingEdgeCut().partition(graph, 4)
    ex = ProcessPoolExecutor(workers=2)
    ex.bind(SimpleNamespace(partition=partition))
    return ex


def make_state(n: int) -> StateStore:
    state = StateStore(n)
    state.add_array("value", np.int64, fill=1)
    state.add_scalar("k", 3)
    return state


# -- task functions: must be module-level so they pickle by reference --


def _sum_task(ctx, shared, item):
    m = item["m"]
    local = ctx.local_in(m)
    return int(local.indptr[-1]) + int(ctx.state.value.sum()) + shared["bias"]


def _crash_task(ctx, shared, item):
    os._exit(13)


def _crash_once_task(ctx, shared, item):
    flag = shared["flag"]
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("crashed")
        os._exit(13)
    return item["m"]


_USE_AFTER_CLOSE = """
import numpy as np
from repro.algorithms.cc import _min_slot, cc_signal
from repro.engine import make_engine
from repro.exec import make_executor
from repro.graph import erdos_renyi, to_undirected

g = to_undirected(erdos_renyi(64, 300, seed=7))
ex = make_executor("process", workers=2)
engine = make_engine("symple", g, 4, executor=ex)
s = engine.new_state()
s.set("label", np.arange(g.num_vertices, dtype=np.int64))
engine.pull(cc_signal, _min_slot, s, g.in_degrees() > 0)
live = s.label.copy()
ex.close()
print("same" if (s.label == live).all() else "differs", s.label[:4].tolist())
"""


class TestSegmentLifecycle:
    def test_no_orphans_after_session_close(self, graph):
        before = shm_entries()
        config = RunConfig(machines=4, executor="process", workers=2,
                           bfs_roots=1)
        with Session(graph, config) as session:
            session.run(algorithm="bfs")
            session.run(algorithm="kcore")
        gc.collect()
        assert shm_entries() - before == set()

    def test_no_orphans_after_gc_finalize(self, graph):
        """An unclosed session's finalizer must release every segment."""
        before = shm_entries()
        config = RunConfig(machines=4, executor="process", workers=2,
                           bfs_roots=1)
        session = Session(graph, config)
        session.run(algorithm="bfs")
        ref = weakref.ref(session)
        del session
        gc.collect()
        assert ref() is None
        gc.collect()
        assert shm_entries() - before == set()

    def test_no_orphans_after_worker_crash(self, bound_executor, graph):
        before = shm_entries()
        ex = bound_executor
        state = make_state(graph.num_vertices)
        items = [{"m": m} for m in range(4)]
        with pytest.raises(EngineError):
            ex.map_machines(_crash_task, {}, items, state)
        ex.close()
        del state
        gc.collect()
        assert shm_entries() - before == set()

    def test_adopted_state_survives_executor_close(self):
        """Reading a store after ``executor.close()`` used to segfault
        (the arena unmapped pages still backing the store's fields), so
        the repro runs in a child: exit 0 and the right values."""
        before = shm_entries()
        proc = subprocess.run(
            [sys.executable, "-c", _USE_AFTER_CLOSE],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "same [0, 0, 2, 2]"
        assert shm_entries() - before == set()

    def test_state_adoption_zero_republish(self, bound_executor, graph):
        """Warm maps publish no state bytes: mutations flow via adoption."""
        ex = bound_executor
        state = make_state(graph.num_vertices)
        items = [{"m": m} for m in range(4)]
        first = ex.map_machines(_sum_task, {"bias": 0}, items, state)
        adopted = ex.stats()["state_publish_bytes"]
        # parent-side mutation through the store, no re-adoption
        state.value[:] = 2
        second = ex.map_machines(_sum_task, {"bias": 0}, items, state)
        assert ex.stats()["state_publish_bytes"] == adopted
        n = graph.num_vertices
        assert [b - a for a, b in zip(first, second)] == [n] * 4
        ex.close()


class TestPoolRestart:
    def test_crash_raises_and_pool_recovers(self, bound_executor, graph):
        ex = bound_executor
        state = make_state(graph.num_vertices)
        items = [{"m": m} for m in range(4)]
        baseline = ex.map_machines(_sum_task, {"bias": 5}, items, state)
        spawns = ex.spawns
        with pytest.raises(EngineError, match="worker pool"):
            ex.map_machines(_crash_task, {}, items, state)
        assert ex.spawns > spawns  # at least one respawn happened
        # the executor must stay usable after the failed map
        again = ex.map_machines(_sum_task, {"bias": 5}, items, state)
        assert again == baseline
        ex.close()

    def test_single_crash_retried_transparently(self, bound_executor,
                                                graph, tmp_path):
        """One pool loss is absorbed: respawn, retry, same results."""
        ex = bound_executor
        state = make_state(graph.num_vertices)
        items = [{"m": m} for m in range(4)]
        flag = str(tmp_path / "crashed-once")
        out = ex.map_machines(_crash_once_task, {"flag": flag}, items, state)
        assert out == [0, 1, 2, 3]
        assert os.path.exists(flag)
        assert ex.spawns == 2  # initial spawn + one crash respawn
        ex.close()

    def test_mutate_bumps_generation_not_pool(self, graph):
        """Session.mutate must republish topology on the next run —
        never serve the pre-mutation shared-memory CSR — while the
        worker pool itself survives."""
        from repro.graph.dynamic import MutationBatch

        config = RunConfig(machines=4, executor="process", workers=2,
                           bfs_roots=1)
        with Session(graph, config) as session:
            r0 = session.run(algorithm="bfs")
            ex = session._executors[("process", 2)]
            assert (ex.spawns, ex._generation) == (1, 1)
            session.mutate(MutationBatch.inserts(
                np.array([[0, 63], [63, 0]], dtype=np.int64)
            ))
            r1 = session.run(algorithm="bfs")
            # rebind republished the mutated topology, no respawn
            assert (ex.spawns, ex._generation) == (1, 2)
            assert r1.digest() != r0.digest() or \
                graph.has_edge(0, 63)  # digest moves unless edge existed
            # a second run on the same version reuses the publication
            session.run(algorithm="bfs")
            assert (ex.spawns, ex._generation) == (1, 2)

    def test_mutate_never_serves_stale_topology(self, graph):
        """The engine result after mutate must reflect the new edges:
        computed against a fresh session on the equivalent static
        graph under the same (frozen) master placement, bit for bit."""
        from repro.graph.dynamic import MutationBatch
        from repro.partition import partition_with_masters

        config = RunConfig(machines=4, executor="process", workers=2,
                           bfs_roots=1, seed=3)
        with Session(graph, config) as session:
            stale = session.run(algorithm="bfs")
            session.mutate(MutationBatch(
                insert_src=np.array([0, 9], dtype=np.int64),
                insert_dst=np.array([9, 0], dtype=np.int64),
                insert_weights=None,
                delete_src=np.empty(0, dtype=np.int64),
                delete_dst=np.empty(0, dtype=np.int64),
                add_vertices=0,
            ))
            mutated = session.run(algorithm="bfs")
            snapshot, version = session._graph_snapshot()
            assert version == 1
            refreshed = session._partitions[("edgecut", 4, 1)]
        assert mutated.digest() != stale.digest()
        with Session(snapshot, config) as fresh:
            # same master placement as the refreshed partition, built
            # from scratch on the post-mutation static graph
            fresh._partitions[("edgecut", 4, 0)] = partition_with_masters(
                snapshot, refreshed.master_of, "outgoing-edge-cut", 4
            )
            expected = fresh.run(algorithm="bfs")
        assert mutated.digest() == expected.digest()

    def test_no_orphans_after_mutate_and_close(self, graph):
        """Mutation-triggered republication must not leak segments."""
        from repro.graph.dynamic import MutationBatch

        before = shm_entries()
        config = RunConfig(machines=4, executor="process", workers=2,
                           bfs_roots=1)
        with Session(graph, config) as session:
            session.run(algorithm="bfs")
            session.mutate(MutationBatch.inserts(
                np.array([[1, 40], [40, 1]], dtype=np.int64)
            ))
            session.run(algorithm="bfs")
        gc.collect()
        assert shm_entries() - before == set()

    def test_pool_survives_rebind(self, bound_executor, graph):
        """A new graph remaps topology without respawning workers."""
        ex = bound_executor
        state = make_state(graph.num_vertices)
        items = [{"m": m} for m in range(4)]
        ex.map_machines(_sum_task, {"bias": 0}, items, state)
        assert (ex.spawns, ex._generation) == (1, 1)
        other = to_undirected(erdos_renyi(80, 400, seed=9))
        partition = OutgoingEdgeCut().partition(other, 4)
        ex.bind(SimpleNamespace(partition=partition))
        state2 = make_state(other.num_vertices)
        out = ex.map_machines(_sum_task, {"bias": 0}, items, state2)
        assert len(out) == 4
        assert (ex.spawns, ex._generation) == (1, 2)
        ex.close()

"""A pull step scanned in blocks: block == unit, plans, certification.

The pull side of ``test_push_kernel.py``:

* ``repro.exec.work.pull_units`` — on random small directed multigraphs
  (self-loops, parallel edges, isolated and zero-in-degree vertices,
  more machines than vertices) every result key of every unit equals
  the unit's own per-unit kernel calls (the pre-block ``_kernel_lanes``,
  kept here as the oracle) by dtype and bytes, whatever the block limit
  and whatever the units carry in;
* whole ``Session.run`` observables — digest, counters, simulated time,
  the ordered send log — are the same under every block limit and on
  every executor;
* ``repro.exec.work.PlanStore`` — a scan plan is kept from the second
  consecutive sighting of a block's vertex sets, served while they
  recur, and never outlives its run or its partition;
* the engine gate — a tampered block slice is refused under
  ``verify="strict"`` and dropped, with the right answer, under
  ``"warn"``;
* the executors' chunk loop — one helper, a typed failure when never
  bound, the straggler rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.algorithms.bfs import bottom_up_signal
from repro.algorithms.cc import _min_slot, cc_signal
from repro.algorithms.kcore import kcore_signal
from repro.algorithms.mis import mis_signal
from repro.algorithms.pagerank import pagerank_signal
from repro.analysis.instrument import instrument_signal
from repro.api import RunConfig, Session
from repro.engine import GeminiEngine, SympleGraphEngine
from repro.engine.symple import circulant_partition
from repro.errors import EngineError, KernelSoundnessError
from repro.exec import make_executor, work
from repro.exec.process import ProcessPoolExecutor
from repro.fault import FaultPlan, StragglerFault
from repro.graph import CSRGraph, MutationBatch, rmat, to_undirected
from repro.kernels import get_kernel
from repro.partition import OutgoingEdgeCut

#: block limits: every unit alone / blocks that split mid-step (on the
#: 0-40-edge graphs of (a); on the 925-edge graph of (b)) / whole chunks
LIMITS = (0, 12, 1 << 40)
RUN_LIMITS = (0, 100, 1 << 40)


def count32_signal(v, nbrs, s, emit):
    """``kcore_signal`` from a float32 init: the running count's dtype
    follows it, so its exact integer range is 2**24."""
    cnt = s.base32[v]
    start = cnt
    for u in nbrs:
        if s.active[u]:
            cnt += 1
            if cnt >= s.k:
                break
    if cnt > start:
        emit(cnt - start)


#: the four kernel kinds; ``mis_signal`` is the one bundled signal
#: whose per-edge expression reads the destination, ``count32_signal``
#: the float32 running count
SIGNALS = (
    bottom_up_signal, kcore_signal, pagerank_signal, cc_signal, mis_signal,
    count32_signal,
)


# -- scaffolding -----------------------------------------------------------------


def random_graph(rng):
    """1-10 vertices, 0-40 edges drawn with replacement: self-loops,
    parallel edges, isolated and zero-in-degree vertices all occur."""
    n = int(rng.integers(1, 11))
    m = int(rng.integers(0, 41))
    return CSRGraph(n, rng.integers(0, n, m), rng.integers(0, n, m))


def fill_state(rng, state):
    n = state.num_vertices
    for name in ("frontier", "active"):
        state.set(name, rng.random(n) < 0.6)
    state.set("label", rng.integers(0, n, n))
    state.set("color", rng.integers(0, 4, n))
    state.set("rank", rng.random(n))
    state.set("out_degree", rng.integers(1, 5, n).astype(np.float64))
    state.set("base32", rng.integers(0, 3, n).astype(np.float32))
    state.add_scalar("k", int(rng.integers(1, 4)))


def context(graph, machines, rng):
    """A bound serial context over ``graph`` with a random state."""
    engine = GeminiEngine(OutgoingEdgeCut().partition(graph, machines))
    ctx = engine.executor._ctx
    ctx.state = engine.new_state()
    fill_state(rng, ctx.state)
    return engine, ctx


def circulant_items(engine, analyzed, rng, step, differentiated, carry):
    """One circulant step's units over every vertex, as
    ``SympleGraphEngine._pull_circulant`` builds them; ``carry`` says
    which units are handed restored values: 'none', 'some' (about half
    the units, about half their vertices), 'all'."""
    p = engine.num_machines
    n = engine.graph.num_vertices
    master_of = engine.partition.master_of
    high = (
        engine.graph.in_degrees() >= 2 if differentiated
        else np.ones(n, dtype=bool)
    )
    names = analyzed.info.carried_vars
    items = []
    for m in range(p):
        part = np.flatnonzero(master_of == circulant_partition(m, step, p))
        cand = part[engine.partition.local_in(m).degrees()[part] > 0]
        dep = cand[high[cand]]
        dep = dep[rng.random(dep.size) < 0.8]  # the rest already broke
        carried = None
        if names:
            present = np.zeros(dep.size, dtype=bool)
            if carry == "all" or (carry == "some" and rng.random() < 0.5):
                present = rng.random(dep.size) < (1.0 if carry == "all"
                                                  else 0.5)
            carried = {
                name: (present, rng.integers(0, 3, dep.size).astype(float))
                for name in names
            }
        items.append({
            "m": m, "dep": dep, "carried": carried,
            "plain": cand[~high[cand]],
        })
    return items


def shared_for(analyzed, scan=(1, 0, 0), active=None):
    return {
        "signal": analyzed, "use_kernel": True, "timed": False,
        "active": active, "is_last": False, "scan": scan, "solo": False,
    }


def per_unit_oracle(ctx, analyzed, shared, item):
    """The pull unit as it was before blocks: each lane one kernel call
    over the machine's own ``LocalAdjacency``."""
    spec = analyzed.kernel
    kernel = get_kernel(spec.kind)
    m = int(item["m"])
    local = ctx.local_in(m)
    dep, carried, plain = item.get("dep"), item.get("carried"), item.get("plain")
    if plain is None:
        active = shared["active"]
        plain = active[local.degrees()[active] > 0]
    batch = kernel(spec, ctx.state, local, plain)
    plain_edges = int(batch.edges.sum())
    emit_v = plain[batch.emit_mask]
    values = batch.values[batch.emit_mask]
    dep_edges, broke, carried_out = 0, None, {}
    if dep is not None:
        name = spec.carried_vars[0] if carried else None
        batch = kernel(
            spec, ctx.state, local, dep,
            carried_in=carried[name] if carried else None,
        )
        dep_edges = int(batch.edges.sum())
        broke = batch.broke
        if carried:
            carried_out = {
                name: (np.ones(dep.size, dtype=bool), batch.carried)
            }
        dep_v = dep[batch.emit_mask]
        if dep_v.size and emit_v.size:
            emit_v = np.concatenate([dep_v, emit_v])
            values = np.concatenate([batch.values[batch.emit_mask], values])
            order = np.argsort(emit_v)
            emit_v, values = emit_v[order], values[order]
        elif dep_v.size:
            emit_v, values = dep_v, batch.values[batch.emit_mask]
    return {
        "kind": spec.kind, "plain_edges": plain_edges, "plain_seconds": 0.0,
        "dep_edges": dep_edges, "dep_seconds": 0.0, "emit_v": emit_v,
        "emit_counts": None, "emit_values": values, "broke": broke,
        "carried": carried_out, "m": m, "plain_vertices": int(plain.size),
    }


def same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            type(a) is type(b)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


def assert_same_results(got, want):
    assert len(got) == len(want)
    for res, ref in zip(got, want):
        assert res.keys() == ref.keys()
        for key in ref:
            assert same(res[key], ref[key]), (ref["m"], key, res[key], ref[key])


# -- (a) a unit's answer does not depend on its block ----------------------------


class TestBlockEqualsUnit:
    @pytest.mark.parametrize(
        "signal", SIGNALS, ids=lambda fn: fn.__name__
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        machines=st.sampled_from([1, 3, 12]),
        differentiated=st.booleans(),
        carry=st.sampled_from(["none", "some", "all"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_result_key(
        self, signal, seed, machines, differentiated, carry
    ):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng)
        engine, ctx = context(graph, machines, rng)
        analyzed = instrument_signal(signal)
        assert analyzed.kernel.compatible(ctx.state)
        step = int(rng.integers(0, machines))
        items = circulant_items(
            engine, analyzed, rng, step, differentiated, carry
        )
        shared = shared_for(analyzed, scan=(1, 0, step))
        want = [per_unit_oracle(ctx, analyzed, shared, it) for it in items]
        assert_same_results(
            [work.pull_task(ctx, shared, item) for item in items], want
        )
        for phase, limit in enumerate(LIMITS * 2, start=1):
            # the second round finds the first round's sets: kept plans
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(work, "_BLOCK_EDGES", limit)
                got = work.pull_units(
                    ctx, {**shared, "scan": (1, phase, step)}, items
                )
            assert_same_results(got, want)
        assert_same_results(
            work.pull_units(ctx, {**shared, "solo": True}, items), want
        )

    @pytest.mark.parametrize(
        "signal", SIGNALS, ids=lambda fn: fn.__name__
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        machines=st.sampled_from([1, 3, 12]),
    )
    @settings(max_examples=25, deadline=None)
    def test_bsp_units(self, signal, seed, machines):
        """``dep=None``, the plain lane left to the unit's own filter."""
        rng = np.random.default_rng(seed)
        graph = random_graph(rng)
        engine, ctx = context(graph, machines, rng)
        analyzed = instrument_signal(signal)
        active = np.flatnonzero(rng.random(graph.num_vertices) < 0.7)
        items = [{"m": m} for m in range(machines)]
        shared = shared_for(analyzed, active=active)
        want = [per_unit_oracle(ctx, analyzed, shared, it) for it in items]
        for phase, limit in enumerate(LIMITS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(work, "_BLOCK_EDGES", limit)
                got = work.pull_units(
                    ctx, {**shared, "scan": (1, phase, 0)}, items
                )
            assert_same_results(got, want)

    def test_restored_and_fresh_units_never_share_a_call(self):
        """A kernel picks its fold dtype once per call: a unit with no
        restored value blocked with one that has some would come back
        float64 where its own call gives the init's int64."""
        graph = to_undirected(rmat(scale=6, edge_factor=6, seed=3))
        rng = np.random.default_rng(0)
        engine, ctx = context(graph, 4, rng)
        analyzed = instrument_signal(cc_signal)
        items = circulant_items(engine, analyzed, rng, 1, False, "none")
        assert all(item["dep"].size for item in items)
        for item in items[1::2]:
            item["carried"]["best"][0][:] = True
        shared = shared_for(analyzed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(work, "_BLOCK_EDGES", 1 << 40)
            got = work.pull_units(ctx, shared, items)
        assert [res["emit_values"].dtype for res in got] == [
            np.dtype(np.int64), np.dtype(np.float64),
        ] * 2
        assert_same_results(
            got, [per_unit_oracle(ctx, analyzed, shared, it) for it in items]
        )
        # classes alternate, so no two units could share a block
        assert ctx.plans.counts["blocks"] == ctx.plans.counts["units"] == 4

    def test_empty_units_keep_the_empty_batch_arrays(self):
        """p > n: most machines hold nothing; their lanes come back as
        what a kernel returns for no vertices, dtypes included."""
        graph = CSRGraph(3, np.array([0, 1, 1]), np.array([1, 2, 2]))
        rng = np.random.default_rng(1)
        engine, ctx = context(graph, 12, rng)
        for signal in SIGNALS:
            analyzed = instrument_signal(signal)
            items = circulant_items(engine, analyzed, rng, 0, False, "all")
            shared = shared_for(analyzed)
            got = work.pull_units(ctx, shared, items)
            assert_same_results(
                got,
                [per_unit_oracle(ctx, analyzed, shared, it) for it in items],
            )
            empty = [res for res in got if not res["dep_edges"]]
            assert empty
            for res in empty:
                assert res["broke"].dtype == bool and not res["broke"].size
                assert res["emit_values"].dtype == np.int64

    def test_limit_bounds_the_running_count(self):
        """``count_to_k_break``'s one cumsum per call is exact below
        2**24 hits under a float32 init; the block limit stays far
        inside that."""
        assert 0 < work._BLOCK_EDGES <= 2**24 // 16

    def test_pull_task_is_a_chunk_of_one(self):
        assert work.pull_task.chunk is work.pull_units


# -- (b) whole runs --------------------------------------------------------------

ALGORITHMS = ("bfs", "kcore", "pagerank", "cc")
ENGINES = ("symple", "gemini")
#: (executor, workers)
BACKENDS = (("serial", None), ("process", 1), ("process", 2), ("process", 3))


@pytest.fixture(scope="module")
def run_graph():
    return to_undirected(rmat(scale=7, edge_factor=6, seed=11))


def observed_runs(monkeypatch, graph, limit, backend, configs):
    """Everything a run can be observed by, per config, under ``limit``:
    digest, counters, simulated time and the ordered send log."""
    engines = []
    make_engine = api.make_engine

    def recording(*args, **kwargs):
        engine = make_engine(*args, **kwargs)
        engine.network.trace = True
        engines.append(engine)
        return engine

    monkeypatch.setattr(work, "_BLOCK_EDGES", limit)
    monkeypatch.setattr(api, "make_engine", recording)
    executor, workers = backend
    out = {}
    base = RunConfig(
        machines=5, seed=2, executor=executor, workers=workers,
        bfs_roots=2, kcore_k=3,
    )
    with Session(graph, base) as session:
        for name, overrides in configs.items():
            result = session.run(**overrides)
            engine = engines[-1]
            out[name] = (
                result.digest(),
                engine.counters.summary(),
                engine.execution_time(),
                list(engine.network.log),
            )
    return out


MATRIX = {
    f"{algorithm}-{engine}": dict(algorithm=algorithm, engine=engine)
    for algorithm in ALGORITHMS for engine in ENGINES
}
FAULTED = {
    "dep-loss": dict(
        algorithm="bfs", engine="symple",
        faults=FaultPlan.dep_loss(0.4, seed=9),
    ),
    "straggler": dict(
        algorithm="kcore", engine="symple",
        faults=FaultPlan(
            stragglers=(StragglerFault(machine=1, factor=2.5),)
        ),
    ),
}


@pytest.fixture(scope="module")
def reference_runs(run_graph):
    """Every unit alone, on the serial executor."""
    with pytest.MonkeyPatch.context() as patch:
        return observed_runs(
            patch, run_graph, 0, ("serial", None), {**MATRIX, **FAULTED}
        )


class TestWholeRuns:
    @pytest.mark.parametrize("limit", RUN_LIMITS)
    @pytest.mark.parametrize(
        "backend", BACKENDS, ids=lambda b: f"{b[0]}{b[1] or ''}"
    )
    def test_every_observable(
        self, monkeypatch, run_graph, reference_runs, limit, backend
    ):
        got = observed_runs(
            monkeypatch, run_graph, limit, backend, {**MATRIX, **FAULTED}
        )
        for name, observed in got.items():
            assert observed == reference_runs[name], (name, limit, backend)

    def test_blocks_formed(self, monkeypatch, run_graph):
        """The matrix above only proves something if units do share
        calls under the larger limits."""
        per_block = []
        for limit in RUN_LIMITS:
            monkeypatch.setattr(work, "_BLOCK_EDGES", limit)
            with Session(run_graph, RunConfig(machines=5)) as session:
                session.run(algorithm="pagerank")
                scan = session.executor_stats()["serial:0"]["scan"]
            per_block.append(scan["units"] / scan["blocks"])
        alone, split, whole = per_block
        assert alone == 1 < split < whole


# -- (c) plan scoping ------------------------------------------------------------


def _located(local, vertices):
    starts = local.indptr[vertices]
    lens = local.indptr[vertices + 1] - starts
    return starts, lens, int(lens.sum())


def scan_of(session):
    """The serial executor's scan counters (zeros before its first run)."""
    stats = session.executor_stats().get("serial:0")
    if stats is None:
        return dict.fromkeys((*work.PlanStore.COUNTERS, "plan_bytes"), 0)
    return dict(stats["scan"])


def delta(after, before):
    return {
        key: after[key] - before[key] for key in work.PlanStore.COUNTERS
    }


class TestPlanScoping:
    @pytest.mark.parametrize("algorithm", ["bfs", "pagerank"])
    def test_back_to_back_runs_count_the_same(self, run_graph, algorithm):
        """Nothing built in one run is served in the next."""
        config = RunConfig(machines=4, algorithm=algorithm, bfs_roots=2)
        with Session(run_graph, config) as session:
            marks = [scan_of(session)]
            for _ in range(3):
                session.run()
                marks.append(scan_of(session))
        first, second, third = (
            delta(b, a) for a, b in zip(marks, marks[1:])
        )
        assert first == second == third
        assert first["blocks"] > 0

    def test_pagerank_builds_twice_then_reuses(self, run_graph):
        """Same sets every phase: flattened in the first (nothing kept
        for a set seen once), built and kept in the second, served in
        the other eighteen of twenty."""
        from repro.algorithms.pagerank import _accumulate_slot

        graph = run_graph
        config = RunConfig(machines=4, engine="symple")
        with Session(graph, config) as session:
            with session.engine_context() as (engine, _, _):
                state = engine.new_state()
                state.add_array("rank", np.float64, 1.0 / graph.num_vertices)
                state.set(
                    "out_degree",
                    np.maximum(graph.out_degrees(), 1).astype(np.float64),
                )
                state.add_array("incoming", np.float64, 0.0)
                active = graph.in_degrees() > 0
                per_phase = []
                held = []
                for _ in range(20):
                    before = scan_of(session)
                    engine.pull(
                        pagerank_signal, _accumulate_slot, state, active
                    )
                    # a state-only change: every rank moves
                    state.rank[:] = state.rank * 0.5 + 0.1
                    per_phase.append(delta(scan_of(session), before))
                    held.append(scan_of(session)["plan_bytes"])
        blocks = per_phase[0]["blocks"]
        assert blocks and all(d["blocks"] == blocks for d in per_phase)
        assert [d["plans_built"] for d in per_phase] == (
            [blocks, blocks] + [0] * 18
        )
        assert [d["plans_reused"] for d in per_phase] == (
            [0, 0] + [blocks] * 18
        )
        assert held[0] == 0 and held[1] > 0
        assert all(h == held[2] for h in held[2:])
        # the plans hold at most E entries per array: flat ids, segment
        # ids, and two per-vertex arrays
        assert held[-1] <= 8 * (2 * graph.num_edges + 2 * 20 * active.sum())

    def test_whole_pagerank_run_reuse_share(self, run_graph):
        with Session(run_graph, RunConfig(machines=4)) as session:
            result = session.run(algorithm="pagerank")
            scan = scan_of(session)
        phases = int(result.extra["iterations"])
        assert scan["plans_reused"] * phases == scan["blocks"] * (phases - 2)
        assert scan["plans_built"] + scan["plans_reused"] == scan["blocks"]

    def test_mutation_drops_every_plan(self, run_graph):
        """A refreshed partition is a new context: the next run counts
        what a fresh session over the mutated graph counts."""
        config = RunConfig(machines=4, algorithm="pagerank")
        batch = MutationBatch(
            insert_src=np.array([0, 5]), insert_dst=np.array([5, 0]),
        )
        with Session(run_graph, config) as session:
            session.run()
            ctx = session._executors[("serial", None)]._ctx
            assert ctx.plans.nbytes > 0
            session.mutate(batch)
            before = scan_of(session)
            session.run()
            after = scan_of(session)
            assert session._executors[("serial", None)]._ctx is not ctx
            mutated = session.graph
        with Session(mutated, config) as fresh:
            fresh.run()
            assert delta(after, before) == delta(
                scan_of(fresh), dict.fromkeys(work.PlanStore.COUNTERS, 0)
            )

    def test_store_keeps_from_the_second_sighting(self):
        graph = to_undirected(rmat(scale=5, edge_factor=4, seed=2))
        partition = OutgoingEdgeCut().partition(graph, 2)
        locals_ = [partition.local_in(m) for m in range(2)]
        sets = [np.flatnonzero(local.degrees() > 0) for local in locals_]

        def rows(sets):
            out = []
            for local, vertices in zip(locals_, sets):
                starts = local.indptr[vertices]
                lens = local.indptr[vertices + 1] - starts
                out.append((local, starts, lens, int(lens.sum())))
            return out

        store = work.PlanStore()

        def sight(run, phase, sets):
            return store.block(
                (run, phase, 0), "plain", (0, 1), rows(sets),
                np.concatenate(sets),
            )

        first = sight(1, 0, sets)
        assert store.nbytes == 0  # seen once: nothing kept
        second = sight(1, 1, sets)
        assert second is not first and store.nbytes == second.nbytes
        assert sight(1, 2, sets) is second
        assert sight(1, 4, sets) is second  # push phases in between
        assert store.counts == {
            "blocks": 4, "units": 8, "plans_built": 2, "plans_reused": 2,
        }
        # one vertex fewer in one unit: a miss, and the old plan goes
        fewer = [sets[0], sets[1][:-1]]
        third = sight(1, 5, fewer)
        assert third is not second and store.nbytes == 0
        assert third.flat.size == second.flat.size - rows(sets)[1][2][-1]
        sight(1, 6, sets)
        kept = sight(1, 7, sets)
        assert sight(1, 8, sets) is kept
        # a new run finds nothing, whatever the sets
        fresh = sight(2, 0, sets)
        assert fresh is not kept and store.nbytes == 0
        # equal sets two phases apart are not consecutive sightings
        sight(2, 1, fewer)
        sight(2, 2, sets)
        assert store.nbytes == 0

    def test_same_vertices_cut_elsewhere_is_a_miss(self):
        """Equal concatenated sets under different unit boundaries are
        different blocks (each row gathers from its own machine)."""
        graph = to_undirected(rmat(scale=5, edge_factor=4, seed=2))
        local = OutgoingEdgeCut().partition(graph, 1).local_in(0)
        vertices = np.flatnonzero(local.degrees() > 0)

        def sight(phase, cut):
            rows = []
            for part in (vertices[:cut], vertices[cut:]):
                starts = local.indptr[part]
                lens = local.indptr[part + 1] - starts
                rows.append((local, starts, lens, int(lens.sum())))
            return store.block((1, phase, 0), "dep", (0, 1), rows, vertices)

        store = work.PlanStore()
        sight(0, 3)
        kept = sight(1, 3)
        assert sight(2, 3) is kept
        assert sight(3, 4) is not kept and store.nbytes == 0
        # and the lanes of one position never meet
        assert store.block(
            (1, 4, 0), "plain", (0, 1),
            [(local, *_located(local, vertices[:4])),
             (local, *_located(local, vertices[4:]))],
            vertices,
        ) is not None
        assert store.counts["plans_reused"] == 1

    def test_store_copies_sets_it_does_not_own(self):
        """A worker's sets are views of the delta arena, overwritten
        two maps later."""
        graph = to_undirected(rmat(scale=5, edge_factor=4, seed=2))
        local = OutgoingEdgeCut().partition(graph, 1).local_in(0)
        backing = np.flatnonzero(local.degrees() > 0)
        view = backing[:]
        assert not view.flags.owndata
        starts = local.indptr[view]
        lens = local.indptr[view + 1] - starts
        row = [(local, starts, lens, int(lens.sum()))]
        store = work.PlanStore()
        store.block((1, 0, 0), "plain", (0,), row, view)
        wanted = backing.copy()
        backing[0] = backing[1]  # the arena moves on
        store.block((1, 1, 0), "plain", (0,), row, wanted)
        assert store.counts["plans_built"] == 2 and store.nbytes > 0


# -- (d) certification -----------------------------------------------------------


def tampered_scan_lane(monkeypatch):
    """Make every multi-unit block hand its second unit one edge too
    many — a slicing bug the per-unit replay must catch."""
    scan_lane = work._scan_lane
    hits = []

    def tampered(ctx, shared, spec, units, lane):
        out = scan_lane(ctx, shared, spec, units, lane)
        live = [i for i, cut in enumerate(out) if cut is not None and cut[0]]
        if len(live) > 1:
            hits.append(lane)
            edges, *rest = out[live[1]]
            out[live[1]] = (edges + 1, *rest)
        return out

    monkeypatch.setattr(work, "_scan_lane", tampered)
    return hits


class TestCertification:
    def test_strict_accepts_the_block_scan(self, run_graph):
        config = RunConfig(machines=4, algorithm="pagerank", verify="strict")
        with Session(run_graph, config) as session:
            checked = session.run()
            assert session.run(verify="off").digest() == checked.digest()

    def test_verdict_is_cached_per_signal(self, run_graph):
        engine = SympleGraphEngine(
            OutgoingEdgeCut().partition(run_graph, 4), verify="strict"
        )
        state = engine.new_state()
        state.set("label", np.arange(run_graph.num_vertices))
        active = run_graph.in_degrees() > 0
        calls = engine.executor.scan
        engine.pull(cc_signal, _min_slot, state, active)
        assert engine._block_certified == {id(cc_signal): True}
        units = calls["units"]
        engine.pull(cc_signal, _min_slot, state, active)
        # the second pull replays nothing
        assert calls["units"] - units < units

    def test_strict_refuses_a_tampered_slice(self, monkeypatch, run_graph):
        hits = tampered_scan_lane(monkeypatch)
        config = RunConfig(machines=4, algorithm="pagerank", verify="strict")
        with Session(run_graph, config) as session:
            with pytest.raises(KernelSoundnessError) as err:
                session.run()
        assert hits
        assert err.value.obligation == "block-equivalence"
        assert "pagerank_signal" in str(err.value)
        assert "edges" in str(err.value)

    @pytest.mark.parametrize("algorithm", ["pagerank", "bfs", "kcore"])
    def test_warn_answers_with_the_per_unit_scan(
        self, monkeypatch, run_graph, algorithm
    ):
        config = RunConfig(machines=4, algorithm=algorithm, bfs_roots=2)
        with Session(run_graph, config) as session:
            oracle = session.run()
            hits = tampered_scan_lane(monkeypatch)
            with pytest.warns(RuntimeWarning, match="block scan disabled"):
                warned = session.run(verify="warn")
            assert hits
            # unit by unit from the mismatch on: tampered exactly once
            assert len(hits) <= 2
        assert warned.digest() == oracle.digest()

    def test_off_does_not_replay(self, monkeypatch, run_graph):
        """The gate is verify-only: with it off the tampered answer
        goes through (and differs), so the tests above test the gate."""
        config = RunConfig(machines=4, algorithm="pagerank")
        with Session(run_graph, config) as session:
            oracle = session.run()
            tampered_scan_lane(monkeypatch)
            assert session.run().digest() != oracle.digest()


# -- the executors' chunk loop ---------------------------------------------------


def _edges_task(ctx, shared, item):
    return {"m": item["m"], "edges": item["edges"]}


def _plain_task(ctx, shared, item):
    return item["m"]


class TestChunkLoop:
    @pytest.mark.parametrize("kind", ["serial", "process"])
    def test_unbound_executor_fails_typed(self, kind):
        ex = make_executor(kind, workers=1 if kind == "process" else None)
        try:
            with pytest.raises(EngineError, match="attach_executor"):
                ex.map_machines(_plain_task, {}, [{"m": 0}], None)
        finally:
            ex.close()

    def test_chunk_form_gets_the_whole_chunk(self):
        seen = []

        def task(ctx, shared, item):
            raise AssertionError("the chunk form runs instead")

        def chunk(ctx, shared, items):
            seen.append(len(items))
            return [item["m"] for item in items]

        task.chunk = chunk
        ctx = work.WorkerContext([], [], np.zeros(0, dtype=np.int64), 0)
        assert ctx.run(task, {}, [{"m": 3}, {"m": 4}]) == [3, 4]
        assert ctx.run(_plain_task, {}, [{"m": 5}]) == [5]
        assert seen == [2]

    def test_straggler_sleeps_its_edge_share(self, monkeypatch):
        """(stall - 1) x the unit's edge share of the chunk's seconds,
        summed over the chunk's slowed units."""
        clock = iter([10.0, 14.0])
        pauses = []
        monkeypatch.setattr(work, "perf_counter", lambda: next(clock))
        monkeypatch.setattr(work, "sleep", pauses.append)
        ctx = work.WorkerContext([], [], np.zeros(0, dtype=np.int64), 0)
        items = [{"m": 0, "edges": 30}, {"m": 1, "edges": 10},
                 {"m": 2, "edges": 40}]
        ctx.run(_edges_task, {}, items, stalls=[3.0, 2.0, 1.0])
        # 4 s chunk: 2 x 30/80 x 4 + 1 x 10/80 x 4
        assert pauses == [pytest.approx(3.5)]
        # no edges counted: equal shares
        clock = iter([0.0, 3.0])
        ctx.run(_plain_task, {}, items, stalls=[1.0, 1.0, 2.0])
        assert pauses[1] == pytest.approx(1.0)
        # nobody slowed: no pause at all
        clock = iter([0.0, 1.0])
        ctx.run(_plain_task, {}, items, stalls=[1.0, 1.0, 1.0])
        assert len(pauses) == 2

    def test_process_chunks_report_their_scans(self, run_graph):
        config = RunConfig(
            machines=4, algorithm="pagerank", executor="process", workers=2
        )
        with Session(run_graph, config) as session:
            result = session.run()
            stats = session.executor_stats()["process:2"]
            serial = session.run(executor="serial", workers=None)
            serial_scan = session.executor_stats()["serial:0"]["scan"]
        assert result.digest() == serial.digest()
        scan = stats["scan"]
        assert set(scan) == {*work.PlanStore.COUNTERS, "plan_bytes"}
        # the same units whatever the chunking; blocks never span a
        # chunk, so there are at least as many
        assert scan["units"] == serial_scan["units"]
        assert scan["blocks"] >= serial_scan["blocks"]
        assert scan["plans_built"] + scan["plans_reused"] == scan["blocks"]

    def test_stats_read_from_another_thread_mid_run(self, run_graph):
        """``GET /stats`` reads the counters and the plan bytes while
        the engine lane is scanning: it must never see a store
        mid-change as an error, and totals only grow."""
        import threading

        config = RunConfig(machines=4, algorithm="pagerank")
        seen, errors = [], []
        stop = threading.Event()

        def poll(session):
            try:
                while not stop.is_set():
                    seen.append(scan_of(session))
            except Exception as exc:  # the failure this test exists for
                errors.append(exc)

        with Session(run_graph, config) as session:
            session.run()
            reader = threading.Thread(target=poll, args=(session,))
            reader.start()
            try:
                for _ in range(3):
                    session.run()
            finally:
                stop.set()
                reader.join(timeout=30)
            assert not reader.is_alive()
        assert not errors and len(seen) > 3
        blocks = [scan["blocks"] for scan in seen]
        assert blocks == sorted(blocks)

    def test_pickling_fallback_counts_in_the_parent(self, run_graph):
        """A function defined in a function cannot travel: the map runs
        inline on the parent's context, through the same loop."""

        def local_signal(v, nbrs, s, emit):
            best = s.label[v]
            for u in nbrs:
                if s.label[u] < best:
                    best = s.label[u]
            if best < s.label[v]:
                emit(best)

        ex = ProcessPoolExecutor(workers=2)
        try:
            engine = GeminiEngine(
                OutgoingEdgeCut().partition(run_graph, 4), executor=ex
            )
            state = engine.new_state()
            state.set("label", np.arange(run_graph.num_vertices))
            engine.pull(
                local_signal, _min_slot, state, run_graph.in_degrees() > 0
            )
            assert ex.last_fallback is not None
            assert ex.scan["blocks"] > 0
            assert ex.spawns == 0
        finally:
            ex.close()


# -- analysis is paid once per function ------------------------------------------


class TestAnalysisMemo:
    def test_two_engines_share_one_analysis(self, run_graph):
        partition = OutgoingEdgeCut().partition(run_graph, 2)
        a = GeminiEngine(partition).ensure_analyzed(kcore_signal)
        b = SympleGraphEngine(partition).ensure_analyzed(kcore_signal)
        assert a is not b  # each engine its own shell ...
        assert a.instrumented is b.instrumented  # ... over one compile
        assert a.kernel is b.kernel and a.info is b.info

    def test_a_rebound_field_reaches_no_one_else(self):
        mine = instrument_signal(kcore_signal)
        mine.kernel = None
        assert instrument_signal(kcore_signal).kernel is not None

    def test_closures_are_analyzed_fresh(self):
        def make(k):
            def signal(v, nbrs, s, emit):
                cnt = 0
                for u in nbrs:
                    if s.active[u]:
                        cnt += 1
                        if cnt >= k:
                            break
                if cnt > 0:
                    emit(cnt)
            return signal

        from repro.analysis import instrument

        before = instrument._analyze_once.cache_info().currsize
        signal = make(2)
        first, second = instrument_signal(signal), instrument_signal(signal)
        assert first.instrumented is not second.instrumented
        assert instrument._analyze_once.cache_info().currsize == before

    def test_worker_context_resolves_through_the_memo(self):
        ctx = work.WorkerContext([], [], np.zeros(0, dtype=np.int64), 0)
        mine = ctx.analyzed(kcore_signal)
        assert ctx.analyzed(kcore_signal) is mine
        assert mine.kernel is instrument_signal(kcore_signal).kernel

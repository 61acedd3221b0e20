"""A pull step scanned in blocks: block == unit, plans, certification.

The pull side of ``test_push_kernel.py``:

* ``repro.exec.work.pull_walk`` — on random small directed multigraphs
  (self-loops, parallel edges, isolated and zero-in-degree vertices,
  more machines than vertices) the walk's one array set, cut back into
  units, equals every unit's own per-unit kernel calls (the pre-block
  scan, kept here as the oracle) by dtype and bytes, whatever the block
  limit and whatever the units carry in; a chunk walked at once equals
  its items walked one by one; a walk returns the same fixed set of
  arrays whatever ``p``;
* whole ``Session.run`` observables — digest, counters, simulated time,
  the ordered send log — are the same under every block limit and on
  every executor;
* ``repro.exec.work.PlanStore`` — a lane plan is kept from the second
  sighting of its lane position under one pull table, served while the
  table recurs (no row gather, no block build), and never outlives its
  table or its partition; of the bundled runs only PageRank reuses
  plans (the census);
* the engine gate — a tampered block slice is refused under
  ``verify="strict"`` and dropped, with the right answer, under
  ``"warn"``;
* the executors' chunk loop — one helper, a typed failure when never
  bound, the straggler rule;
* booking — an untraced phase with no delivery hook books per-pair
  sums, with no ordered message list;
* what a break kernel flattens — a first-match call no more than the
  rows its head probe left open, less their first edge (a call under
  ``csr._PROBE_EDGES`` edges is scanned whole), a walk whose every head
  hits nothing, with the scanned edges pinned.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.algorithms.bfs import _visit_slot, bottom_up_signal
from repro.algorithms.cc import _min_slot, cc_signal
from repro.algorithms.kcore import kcore_signal
from repro.algorithms.mis import mis_signal
from repro.algorithms.pagerank import pagerank_signal
from repro.algorithms.registry import algorithm_names
from repro.analysis.instrument import instrument_signal
from repro.analysis.kernelspec import FIRST_MATCH_BREAK
from repro.api import RunConfig, Session
from repro.engine import GeminiEngine, SympleGraphEngine
from repro.engine.base import _TABLE_SERIAL
from repro.engine.dep import carried_dtypes
from repro.engine.fastpath import BLOCK
from repro.engine.state import StateStore
from repro.engine.symple import circulant_partition
from repro.errors import EngineError, KernelSoundnessError
from repro.exec import make_executor, work
from repro.exec.process import ProcessPoolExecutor
from repro.fault import FaultPlan, StragglerFault
from repro.graph import (
    CSRGraph, MutationBatch, random_weights, rmat, to_undirected,
)
from repro.kernels import csr, get_kernel
from repro.kernels import registry as kernel_registry
from repro.partition import OutgoingEdgeCut
from repro.partition.base import LocalAdjacency

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


def circulant_step(engine, analyzed, rng, step, differentiated, carry):
    """One circulant step's units over every vertex, as a table whose
    walk of ``step`` (:func:`walk_step`) scans them, the ``dep_in`` it
    starts from, and each machine's unit for :func:`per_unit_oracle`;
    ``carry`` says which units are handed restored values: 'none',
    'some' (about half the units, about half their vertices), 'all'."""
    p = engine.num_machines
    n = engine.graph.num_vertices
    master_of = engine.partition.master_of
    high = (
        engine.graph.in_degrees() >= 2 if differentiated
        else np.ones(n, dtype=bool)
    )
    # carried values travel in their fold's dtype
    names = carried_dtypes(analyzed, engine.executor._ctx.state)
    skip = np.zeros(n, dtype=bool)
    present = {name: np.zeros(n, dtype=bool) for name in names}
    data = {name: np.zeros(n, dtype=dtype) for name, dtype in names.items()}
    table = {
        "serial": next(_TABLE_SERIAL),
        "machine": [[(j - s - 1) % p for s in range(p)] for j in range(p)],
    }
    rows = {"dep": [], "plain": []}
    units = []
    for m in range(p):
        j = circulant_partition(m, step, p)
        part = np.flatnonzero(master_of == j)
        cand = part[engine.partition.local_in(m).degrees()[part] > 0]
        circulated, plain = cand[high[cand]], cand[~high[cand]]
        broke = rng.random(circulated.size) >= 0.8  # already broke
        skip[circulated[broke]] = True
        dep = circulated[~broke]
        carried = None
        if names:
            mask = np.zeros(dep.size, dtype=bool)
            if carry == "all" or (carry == "some" and rng.random() < 0.5):
                mask = rng.random(dep.size) < (1.0 if carry == "all"
                                               else 0.5)
            carried = {}
            for name in names:
                values = rng.integers(0, 3, dep.size).astype(names[name])
                present[name][dep], data[name][dep] = mask, values
                carried[name] = (mask, values)
        # machine m's rows hold partition j alone
        for lane, vertices in (("dep", circulated), ("plain", plain)):
            rows[lane].append((j, vertices))
        units.append({"m": m, "dep": dep, "carried": carried, "plain": plain})
    for lane, held in rows.items():
        cuts = np.zeros((p, p + 1), dtype=np.int64)
        base = 0
        for m, (j, vertices) in enumerate(held):
            cuts[m] = base + np.where(np.arange(p + 1) > j, vertices.size, 0)
            base += vertices.size
        table[lane] = (
            np.concatenate([v for _, v in held]).astype(np.int64), cuts
        )
    return table, (skip, present, data), units


def bsp_step(engine, active):
    """The BSP table over ``active`` and each machine's unit, its plain
    lane filtered as the pre-table unit did: by the local degrees."""
    units = []
    for m in range(engine.num_machines):
        local = engine.partition.local_in(m)
        units.append({"m": m, "dep": None, "carried": None,
                      "plain": active[local.degrees()[active] > 0]})
    mask = np.zeros(engine.graph.num_vertices, dtype=bool)
    mask[active] = True
    return engine._pull_table(None, mask, circulant=False), units


def shared_for(analyzed, ctx=None):
    """The walk's shared dict; with ``ctx``, carrying the signal's
    variables, typed over its state as the engine types them."""
    carried = {} if ctx is None else carried_dtypes(analyzed, ctx.state)
    return {
        "signal": analyzed, "use_kernel": True, "timed": False,
        "solo": False, "carried": carried, "dep_in": None,
    }


def walk_step(ctx, shared, table, step, dep_in=None):
    """The walk of ``step`` alone over every item of ``table``, its
    units' results in the order of the machines that scan them."""
    items = list(range(len(table["machine"])))
    walk, = work.pull_walk(
        ctx, {**shared, "table": table, "steps": (step, step + 1),
              "dep_in": dep_in}, items,
    )
    return unit_results(walk)


def unit_results(walk):
    """A walk's array set cut back into one result per unit, in the
    walk's unit order, shaped as :func:`per_unit_oracle`'s (None: a unit
    with no vertex on either lane)."""
    emit_n, counts = walk["emit_n"], walk["emit_counts"]
    emit_at = np.cumsum(emit_n) - emit_n
    sizes = emit_n  # each unit's values, and where they start
    if counts is not None:
        total = np.concatenate(([0], np.cumsum(counts)))
        sizes = total[emit_at + emit_n] - total[emit_at]
    starts = np.cumsum(sizes) - sizes
    dep_at = np.cumsum(walk["dep_vertices"]) - walk["dep_vertices"]
    out = []
    for u in range(walk["m"].size):
        res = {"kind": walk["kind"], "m": int(walk["m"][u])}
        for lane in ("plain", "dep"):
            for what in ("edges", "vertices"):
                res[f"{lane}_{what}"] = int(walk[f"{lane}_{what}"][u])
        if not (res["plain_vertices"] or res["dep_vertices"]):
            out.append(None)
            continue
        emits = slice(emit_at[u], emit_at[u] + walk["emit_n"][u])
        res["emit_v"] = walk["emit_v"][emits]
        if sizes[u]:
            res["emit_values"] = walk["emit_values"][
                starts[u]:starts[u] + sizes[u]
            ]
        if "dep_v" in walk and res["dep_vertices"]:
            span = slice(dep_at[u], dep_at[u] + res["dep_vertices"])
            res["dep_v"] = walk["dep_v"][span]
            res["broke"] = (None if walk["broke"] is None
                            else walk["broke"][span])
            res["carried"] = {
                name: (present[span], values[span])
                for name, (present, values) in walk["carried"].items()
            }
        out.append(res)
    return out


def per_unit_oracle(ctx, analyzed, unit):
    """The pull unit as it was before blocks: each lane one kernel call
    over the machine's own ``LocalAdjacency``."""
    spec = analyzed.kernel
    kernel = get_kernel(spec.kind)
    m = int(unit["m"])
    local = ctx.local_in(m)
    dep, carried, plain = unit["dep"], unit["carried"], unit["plain"]
    batch = kernel(spec, ctx.state, local, plain)
    plain_edges = int(batch.edges.sum())
    emit_v = plain[batch.emit_mask]
    values = batch.values[batch.emit_mask]
    out = {}
    dep_edges = 0
    if dep is not None:
        name = spec.carried_vars[0] if carried else None
        batch = kernel(
            spec, ctx.state, local, dep,
            carried_in=carried[name] if carried else None,
        )
        dep_edges = int(batch.edges.sum())
        out["broke"] = batch.broke
        out["carried"] = {
            name: (np.ones(dep.size, dtype=bool), batch.carried)
        } if carried else {}
        dep_v = dep[batch.emit_mask]
        if dep_v.size and emit_v.size:
            emit_v = np.concatenate([dep_v, emit_v])
            values = np.concatenate([batch.values[batch.emit_mask], values])
            order = np.argsort(emit_v)
            emit_v, values = emit_v[order], values[order]
        elif dep_v.size:
            emit_v, values = dep_v, batch.values[batch.emit_mask]
    res = {
        "kind": spec.kind, "m": m,
        "plain_edges": plain_edges, "plain_vertices": int(plain.size),
        "dep_edges": dep_edges,
        "dep_vertices": 0 if dep is None else int(dep.size),
        "emit_v": emit_v,
    }
    if emit_v.size:  # a unit that emits nothing has no values
        res["emit_values"] = values
    if res["dep_vertices"]:  # nor, with no dependency lane, any state
        res.update(out, dep_v=dep)
    return res


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


def assert_same_results(got, want, state=True):
    """Unit by unit, key by key; a unit with no vertex on either lane
    is None — the oracle's has zero vertices on both.  ``state``: the
    walk returned the dependency state (it was passed ``dep_in``)."""
    assert len(got) == len(want)
    for res, ref in zip(got, want):
        if ref is None or not (ref["plain_vertices"] or ref["dep_vertices"]):
            assert res is None, ref
            continue
        if not state:
            ref = {k: v for k, v in ref.items()
                   if k not in ("dep_v", "broke", "carried")}
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
        table, dep_in, units = circulant_step(
            engine, analyzed, rng, step, differentiated, carry
        )
        shared = shared_for(analyzed, ctx=ctx)
        want = [per_unit_oracle(ctx, analyzed, unit) for unit in units]
        for limit in LIMITS * 2:
            # the second round finds the first round's lanes: kept plans
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(work, "_BLOCK_EDGES", limit)
                got = walk_step(ctx, shared, table, step, dep_in)
            assert_same_results(got, want)
        assert_same_results(
            walk_step(ctx, {**shared, "solo": True}, table, step, dep_in),
            want,
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
        """No dependency lane, the plain lane each machine's
        ``_has_in`` row of the active set."""
        rng = np.random.default_rng(seed)
        graph = random_graph(rng)
        engine, ctx = context(graph, machines, rng)
        analyzed = instrument_signal(signal)
        active = np.flatnonzero(rng.random(graph.num_vertices) < 0.7)
        table, units = bsp_step(engine, active)
        shared = shared_for(analyzed)
        want = [per_unit_oracle(ctx, analyzed, unit) for unit in units]
        for limit in LIMITS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(work, "_BLOCK_EDGES", limit)
                got = walk_step(ctx, shared, table, 0)
            assert_same_results(got, want, state=False)

    def test_restored_and_fresh_units_share_a_call(self):
        """A fold runs in its spec's dtype whatever is restored, so a
        unit with no restored value shares a call with one that has
        some, and each comes back with its own call's int64."""
        graph = to_undirected(rmat(scale=6, edge_factor=6, seed=3))
        rng = np.random.default_rng(0)
        engine, ctx = context(graph, 4, rng)
        analyzed = instrument_signal(cc_signal)
        table, dep_in, units = circulant_step(
            engine, analyzed, rng, 1, False, "none"
        )
        assert all(unit["dep"].size for unit in units)
        for unit in units[1::2]:
            unit["carried"]["best"][0][:] = True
            dep_in[1]["best"][unit["dep"]] = True
        shared = shared_for(analyzed, ctx=ctx)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(work, "_BLOCK_EDGES", 1 << 40)
            got = walk_step(ctx, shared, table, 1, dep_in)
        assert [res["emit_values"].dtype for res in got] == [
            np.dtype(np.int64)
        ] * 4
        assert_same_results(
            got, [per_unit_oracle(ctx, analyzed, unit) for unit in units]
        )
        assert ctx.plans.counts["blocks"] == 1
        assert ctx.plans.counts["units"] == 4

    def test_empty_units_cost_nothing(self):
        """p > n: most machines hold nothing, and their units come back
        with no vertex, no edge and no emit; a unit whose dependency
        lane is empty adds nothing to the step's state arrays."""
        graph = CSRGraph(3, np.array([0, 1, 1]), np.array([1, 2, 2]))
        for differentiated in (False, True):
            rng = np.random.default_rng(1)
            engine, ctx = context(graph, 12, rng)
            got = []
            for signal in SIGNALS:
                analyzed = instrument_signal(signal)
                shared = shared_for(analyzed, ctx=ctx)
                for step in range(12):
                    table, dep_in, units = circulant_step(
                        engine, analyzed, rng, step, differentiated, "all"
                    )
                    walked = walk_step(ctx, shared, table, step, dep_in)
                    assert_same_results(walked, [
                        per_unit_oracle(ctx, analyzed, unit)
                        for unit in units
                    ])
                    got += walked
            scanned = [res for res in got if res is not None]
            # of a signal's 144 units (12 steps x 12 machines) at most
            # two hold a vertex: 1 and 2 have in-edges, on one machine
            # each
            assert 0 < len(scanned) <= 2 * len(SIGNALS) < len(got)
            lane_only = [res for res in scanned if not res["dep_vertices"]]
            assert bool(lane_only) == differentiated
            for res in lane_only:
                assert "broke" not in res and "carried" not in res

    def test_a_phase_with_no_dependency_lane(self, monkeypatch):
        """BFS's late pulls: every vertex on the plain lane.  The walk
        of all p steps plans only its plain lane, with a row for no
        empty unit, and scans the plain lanes of every step in
        ``ceil(plain edges / _BLOCK_EDGES)`` calls."""
        graph = to_undirected(rmat(scale=8, edge_factor=4, seed=2))
        rng = np.random.default_rng(5)
        engine, ctx = context(graph, 8, rng)
        analyzed = instrument_signal(bottom_up_signal)
        n = graph.num_vertices
        table = engine._pull_table(
            np.zeros(n, dtype=bool), rng.random(n) < 0.5, circulant=True
        )
        plans = []
        lane_plan = work._lane_plan

        def counted(ctx, shared, key, machines, sizes, *rest):
            plan = lane_plan(ctx, shared, key, machines, sizes, *rest)
            plans.append((key[0], sizes.tolist(), len(plan.blocks)))
            return plan

        monkeypatch.setattr(work, "_lane_plan", counted)
        shared = {**shared_for(analyzed), "table": table, "steps": (0, 8)}
        walk, = work.pull_walk(ctx, shared, list(range(8)))
        plain = [
            (m, unit_vertices) for m in range(8) for j in range(8)
            if (unit_vertices := work.unit_lane(table, "plain", m, j)).size
        ]
        edges = sum(
            int(ctx.local_in(m).degrees()[v].sum()) for m, v in plain
        )
        assert 0 < edges and len(plain) > 8
        (lane, sizes, blocks), = plans
        assert lane == "plain"
        assert blocks == -(-edges // work._BLOCK_EDGES)
        assert sorted(sizes) == sorted(v.size for _, v in plain)
        units = unit_results(walk)
        # a unit with no plain vertex has nothing to scan at all
        assert sum(res is None for res in units) == 64 - len(plain)
        assert not walk["dep_vertices"].any() and not walk["dep_edges"].any()

    def test_limit_bounds_the_running_count(self):
        """``count_to_k_break`` keeps no running sum across a call's
        rows, so the 2**24 its count is exact to under a float32 init
        bounds one row's start plus degree, not the block's hits: a row
        of a multi-row block that counts from 2**24 - 3 breaks at its
        third hit on exactly 2**24.  The block limit bounds a call, and
        the first-match probe rule sits below it."""
        assert 0 < csr._PROBE_EDGES < work._BLOCK_EDGES
        n, top = 6, 2**24
        indptr = np.arange(0, 5 * n + 1, 5, dtype=np.int64)
        local = LocalAdjacency(indptr, np.arange(5 * n) % n, None)
        state = StateStore(n)
        state.add_array("active", bool, True)
        state.add_array("base32", np.float32, 0.0)
        state.base32[-1] = top - 3
        state.add_scalar("k", top)
        spec = instrument_signal(count32_signal).kernel
        vertices = np.arange(n, dtype=np.int64)
        batch = get_kernel(spec.kind)(
            spec, state, csr.ScanBlock.of(local, vertices), vertices
        )
        assert batch.carried.dtype == np.float32
        assert batch.carried.tolist() == [5.0] * (n - 1) + [float(top)]
        assert batch.edges.tolist() == [5] * (n - 1) + [3]
        assert batch.broke.tolist() == [False] * (n - 1) + [True]

    def test_pull_task_is_a_chunk_of_one(self):
        """The pull phase's one task is the walk, and it is its own chunk
        form: one item walked is a chunk of one."""
        assert work.pull_walk.chunk is work.pull_walk

    @pytest.mark.parametrize("signal", [kcore_signal, cc_signal],
                             ids=lambda fn: fn.__name__)
    def test_a_chunk_walks_as_its_items_alone(self, monkeypatch, signal):
        """A chunk of items walked at once — every step's units blocked
        together — gives each item what walking it alone gives, step by
        step and key by key."""
        graph = to_undirected(rmat(scale=6, edge_factor=6, seed=3))
        rng = np.random.default_rng(4)
        engine, ctx = context(graph, 4, rng)
        analyzed = instrument_signal(signal)
        active = rng.random(graph.num_vertices) < 0.8
        high = active & (graph.in_degrees() >= 4)
        table = engine._pull_table(high, active & ~high, circulant=True)
        shared = {**shared_for(analyzed, ctx=ctx),
                  "table": table, "steps": (0, 4)}
        monkeypatch.setattr(work, "_BLOCK_EDGES", 1 << 40)
        # walked twice, the chunk's plans are kept; an item alone is
        # another lane position of the table, never served them
        for _ in range(2):
            whole = unit_results(work.pull_walk(ctx, shared, [0, 1, 2, 3])[0])
        assert ctx.plans.counts["units"] > ctx.plans.counts["blocks"]
        for j in range(4):
            alone = unit_results(work.pull_walk(ctx, shared, [j])[0])
            assert len(alone) == 4
            # item j is scanned by machine (j - s - 1) % 4 in step s
            assert_same_results(
                alone, [whole[4 * s + (j - s - 1) % 4] for s in range(4)]
            )

    @pytest.mark.parametrize("machines", [4, 8])
    def test_a_walk_is_one_fixed_array_set(self, monkeypatch, machines):
        """Whatever ``p``, a walked phase comes back as the same keys,
        each a flat array over the walk's ``steps x p`` units (or its
        emits) or a scalar — no per-unit dict, list or tuple."""
        graph = to_undirected(rmat(scale=6, edge_factor=6, seed=3))
        walks = []
        pull_walk = work.pull_walk

        def recording(ctx, shared, items):
            walks.append(pull_walk(ctx, shared, items))
            return walks[-1]

        recording.chunk = recording
        monkeypatch.setattr(work, "pull_walk", recording)
        config = RunConfig(machines=machines, algorithm="kcore", kcore_k=3)
        with Session(graph, config) as session:
            session.run()
        assert walks
        for chunks in walks:
            walk, = chunks  # one chunk on the serial executor
            assert set(walk) == {
                "kind", "m", "width", "item_edges", "emit_v", "emit_n",
                "emit_counts", "emit_values", *work._UNIT_COLUMNS,
            }
            units = walk["m"].size
            assert units % machines == 0 and units >= machines
            for key in ("m", *work._UNIT_COLUMNS, "emit_n"):
                assert walk[key].shape == (units,)
            assert walk["emit_v"].shape == (int(walk["emit_n"].sum()),)
            assert walk["emit_values"].shape == walk["emit_v"].shape


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


def mixed_signal(v, nbrs, s, emit):
    """Bottom-up BFS emitting an int for an even parent and a tuple for
    an odd one: a unit's values are an int64 array, a list, or (both
    kinds) a list — three value classes a chunk join must keep apart."""
    for u in nbrs:
        if s.frontier[u]:
            emit(u if u % 2 == 0 else (u,))
            break


def _mixed_slot(v, value, s):
    if s.parent[v] >= 0:
        return False
    s.parent[v] = value[0] if isinstance(value, tuple) else value
    return True


class TestChunkJoin:
    @pytest.mark.parametrize("engine_cls", [SympleGraphEngine, GeminiEngine])
    def test_value_classes_survive_the_join(self, run_graph, engine_cls):
        """The interpreter's units emit arrays and lists; walked in two
        or three process chunks and joined, the state, the counters and
        the ordered send log are the serial walk's."""
        seen = []
        for executor in (None, ProcessPoolExecutor(2), ProcessPoolExecutor(3)):
            engine = engine_cls(
                OutgoingEdgeCut().partition(run_graph, 5), executor=executor
            )
            engine.network.trace = True
            state = engine.new_state()
            n = run_graph.num_vertices
            state.add_array("parent", np.int64, -1)
            state.set("frontier", np.arange(n) % 7 == 0)
            active = run_graph.in_degrees() > 0
            try:
                for _ in range(2):
                    engine.pull(mixed_signal, _mixed_slot, state, active)
                    state.frontier[:] = state.parent >= 0
            finally:
                engine.executor.close()
            seen.append((state.parent.tobytes(), engine.counters.summary(),
                         list(engine.network.log)))
        assert seen[0][0] != np.full(n, -1).tobytes()
        assert seen[1] == seen[0] and seen[2] == seen[0]


# -- (c) plan scoping ------------------------------------------------------------


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


@pytest.fixture(scope="module")
def census_graphs():
    """The plan-reuse census graph, and its weighted form for sssp."""
    graph = rmat(scale=9, edge_factor=8, seed=3)
    return graph, random_weights(to_undirected(graph), seed=3)


class TestPlanScoping:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_plan_reuse_census(self, census_graphs, algorithm, engine):
        """Which bundled runs reuse lane plans: PageRank, whose lanes
        are the same every phase, serves every block after its second
        phase; every other algorithm's active set or skip bits move from
        phase to phase, and it reuses none."""
        graph, weighted = census_graphs
        config = RunConfig(machines=4, engine=engine, algorithm=algorithm)
        with Session(weighted if algorithm == "sssp" else graph,
                     config) as session:
            result = session.run()
            scan = scan_of(session)
        assert scan["plans_built"] + scan["plans_reused"] == scan["blocks"]
        if algorithm == "pagerank":
            phases = int(result.extra["iterations"])
            assert scan["blocks"] and phases > 2
            assert scan["plans_reused"] * phases == (
                scan["blocks"] * (phases - 2)
            )
        else:
            assert scan["plans_reused"] == 0

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

    def test_a_recurring_lane_gathers_and_builds_nothing(self, monkeypatch,
                                                          run_graph):
        """PageRank's lanes recur every phase: once a lane's plan is kept
        (its second sighting), the phases after it make no row gather
        and no block — no ``LanePlan``, no ``ScanBlock`` — and every
        block is served."""
        from repro.algorithms.pagerank import _accumulate_slot

        built = {"plans": 0, "blocks": 0}
        lane_plan, scan_block = work.LanePlan, work.ScanBlock

        def counting(kind, cls):
            def make(*args, **kwargs):
                built[kind] += 1
                return cls(*args, **kwargs)
            return make

        monkeypatch.setattr(work, "LanePlan", counting("plans", lane_plan))
        monkeypatch.setattr(work, "ScanBlock", counting("blocks", scan_block))
        graph = run_graph
        with Session(graph, RunConfig(machines=4)) as session:
            with session.engine_context() as (engine, _, _):
                state = engine.new_state()
                state.add_array("rank", np.float64, 1.0 / graph.num_vertices)
                state.set("out_degree", np.maximum(
                    graph.out_degrees(), 1).astype(np.float64))
                state.add_array("incoming", np.float64, 0.0)
                active = graph.in_degrees() > 0
                per_phase = []
                for _ in range(5):
                    marks = dict(built), scan_of(session)
                    engine.pull(
                        pagerank_signal, _accumulate_slot, state, active
                    )
                    state.rank[:] = state.rank * 0.5 + 0.1
                    per_phase.append((
                        {k: built[k] - marks[0][k] for k in built},
                        delta(scan_of(session), marks[1]),
                    ))
        for k, (made, counts) in enumerate(per_phase):
            assert counts["blocks"] > 0
            if k < 2:  # seen once, then kept
                assert made["plans"] > 0 and made["blocks"] > 0
            else:
                assert made == {"plans": 0, "blocks": 0}
                assert counts["plans_reused"] == counts["blocks"]

    def test_a_lane_the_skip_filter_cut_is_never_kept(self):
        """Past a walk's first skip bit its dependency lanes are the
        walk's, not the table's: walks of one table whose breaks differ
        each answer as their own solo replay, and only the lanes the
        table fixes are served."""
        graph = to_undirected(rmat(scale=6, edge_factor=6, seed=3))
        rng = np.random.default_rng(6)
        engine, ctx = context(graph, 4, rng)
        analyzed = instrument_signal(kcore_signal)
        high = graph.in_degrees() >= 2
        table = engine._pull_table(high, ~high, circulant=True)
        shared = {**shared_for(analyzed, ctx=ctx),
                  "table": table, "steps": (0, 4)}
        for _ in range(4):
            ctx.state.active[:] = rng.random(graph.num_vertices) < 0.5
            got, want = (
                unit_results(work.pull_walk(ctx, walk, [0, 1, 2, 3])[0])
                for walk in (shared, {**shared, "solo": True})
            )
            assert_same_results(got, want, state=False)
        counts = ctx.plans.take()
        assert 0 < counts["plans_reused"] < counts["blocks"] / 2

    @staticmethod
    def sights(graph, machines=2):
        """A store, and a function that sights one lane position of a
        walk over each machine's whole row of ``graph`` (or ``sets``)
        under table ``serial`` (``lane`` None: a lane the table does not
        fix)."""
        partition = OutgoingEdgeCut().partition(graph, machines)
        ctx = work.WorkerContext(
            [partition.local_in(m) for m in range(machines)],
            [partition.local_out(m) for m in range(machines)],
            partition.master_of, graph.num_vertices,
        )
        sets = [np.flatnonzero(ctx.local_in(m).degrees() > 0)
                for m in range(machines)]

        def sight(serial, sets=sets, lane="plain", machines=None):
            sizes = np.array([v.size for v in sets])
            machines = np.arange(len(sets)) if machines is None else machines
            return work._lane_plan(
                ctx, {"solo": False, "table": {"serial": serial}},
                None if lane is None else (lane, 0, 0),
                machines, sizes, np.concatenate(sets),
            )

        return ctx.plans, sight, sets, ctx

    def test_store_keeps_from_the_second_sighting(self):
        graph = to_undirected(rmat(scale=5, edge_factor=4, seed=2))
        store, sight, sets, ctx = self.sights(graph)
        first = sight(1)
        assert store.nbytes == 0  # seen once: nothing kept
        second = sight(1)
        assert second is not first and store.nbytes == second.nbytes
        assert sight(1) is second
        assert sight(1) is second
        assert store.counts == {
            "blocks": 4, "units": 8, "plans_built": 2, "plans_reused": 2,
        }
        # a new table drops the kept plan, whatever its sets
        fewer = [sets[0], sets[1][:-1]]
        third = sight(2, fewer)
        assert third is not second and store.nbytes == 0
        dropped = int(ctx.local_in(1).degrees()[sets[1][-1]])
        flat = [plan.blocks[0][4].flat.size for plan in (second, third)]
        assert flat[1] == flat[0] - dropped
        kept = sight(2, fewer)
        assert sight(2, fewer) is kept
        # a lane the skip filter cut is built and never kept
        assert sight(2, fewer, lane=None) is not kept
        assert sight(2, fewer, lane=None) is not kept
        assert store.nbytes == kept.nbytes
        # a table seen before the last one starts afresh
        sight(1)
        assert store.nbytes == 0
        sight(1)
        assert store.nbytes > 0

    def test_same_vertices_cut_elsewhere_is_a_miss(self):
        """The table's serial and the lane position are the whole key:
        each position of one table has its own plan, and the same
        vertices cut the same way under another table are a miss."""
        graph = to_undirected(rmat(scale=5, edge_factor=4, seed=2))
        store, sight, (vertices,), _ = self.sights(graph, machines=1)
        cut = {k: [vertices[:k], vertices[k:]] for k in (3, 4)}
        one = np.zeros(2, dtype=np.int64)  # both units on machine 0
        sight(1, cut[3], machines=one)
        kept = sight(1, cut[3], machines=one)
        assert sight(1, cut[3], machines=one) is kept
        # another position of the table counts its own sightings
        sight(1, cut[4], lane="dep", machines=one)
        dep = sight(1, cut[4], lane="dep", machines=one)
        assert dep is not kept and dep.starts.tolist() == [0, 4]
        assert sight(1, cut[3], machines=one) is kept
        assert store.nbytes == kept.nbytes + dep.nbytes
        # the same lane under another table
        assert sight(2, cut[3], machines=one) is not kept
        assert store.nbytes == 0
        assert store.counts["plans_reused"] == 2


# -- (d) certification -----------------------------------------------------------


def tampered_scan_lane(monkeypatch):
    """Make every lane with a multi-unit block hand the block's second
    unit one edge too many — a slicing bug the per-unit replay must
    catch."""
    scan_lane = work._scan_lane
    hits = []

    def tampered(ctx, shared, spec, plan, *lanes):
        out = scan_lane(ctx, shared, spec, plan, *lanes)
        second = [u0 + 1 for u0, u1, *_ in plan.blocks if u1 - u0 > 1]
        if second:
            hits.append(plan)
            out[0][second] += 1
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
        assert engine.fastpaths.entry(BLOCK, cc_signal).verdict is True
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
            # unit by unit from the mismatch on: tampered in one map
            # only — a circulant phase (4 steps x 2 lanes) is one map
            assert len(hits) <= 2 * 4
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


# -- booking ------------------------------------------------------------------


class TestBooking:
    @pytest.mark.parametrize("algorithm", ["pagerank", "kcore", "bfs"])
    def test_untraced_books_sums_without_a_list(
        self, monkeypatch, run_graph, algorithm
    ):
        """With no delivery hook and no trace log nothing observes a
        single message, so the merge books per-pair sums and builds no
        ordered list: no hand-off is inserted anywhere.  Traced, the
        same run inserts its hand-offs after their units' updates and
        books the same counters."""
        inserts = []
        insert = np.insert

        def counted(*args, **kwargs):
            inserts.append(1)
            return insert(*args, **kwargs)

        monkeypatch.setattr(np, "insert", counted)
        engines = []
        make_engine = api.make_engine

        def recording(*args, **kwargs):
            engines.append(make_engine(*args, **kwargs))
            engines[-1].network.trace = traced
            return engines[-1]

        monkeypatch.setattr(api, "make_engine", recording)
        summaries = []
        for traced in (False, True):
            config = RunConfig(machines=5, algorithm=algorithm, bfs_roots=2,
                               kcore_k=3)
            with Session(run_graph, config) as session:
                session.run()
            summaries.append(engines[-1].counters.summary())
            assert bool(inserts) == traced
            assert engines[-1].counters.bytes_by_tag["dep"] > 0
        assert summaries[0] == summaries[1]


# -- what a break kernel flattens ------------------------------------------------


@pytest.fixture(scope="module")
def census_bfs_graph():
    return to_undirected(rmat(scale=10))


def first_match_census(monkeypatch, probe):
    """Every first-match kernel call, as ``(block, batch, flattened)``,
    under the probe rule ``probe`` (``csr._PROBE_EDGES``): ``flattened``
    counts the elements its blocks flattened, by wrapping the flatten."""
    monkeypatch.setattr(csr, "_PROBE_EDGES", probe)
    calls, inside = [], []
    flat = csr.ScanBlock.flat

    def counting(block):
        if inside and block._flat is None:
            inside[-1] += block.total
        return flat.fget(block)

    kernel = get_kernel(FIRST_MATCH_BREAK)

    def recording(spec, state, local, vertices, *args, **kwargs):
        inside.append(0)
        batch = kernel(spec, state, local, vertices, *args, **kwargs)
        calls.append((local, batch, inside.pop()))
        return batch

    monkeypatch.setattr(csr.ScanBlock, "flat", property(counting))
    monkeypatch.setitem(kernel_registry._REGISTRY, FIRST_MATCH_BREAK,
                        recording)
    return calls


class TestBreakFlattenCensus:
    """A first-match call flattens only the rows its head probe leaves
    open, less their first edge; a call of at most ``_PROBE_EDGES``
    edges is scanned whole.  What it scans is unchanged: the kernels'
    edges and the run's ``edges_traversed`` are pinned."""

    @pytest.mark.parametrize("probe", [csr._PROBE_EDGES, 0],
                             ids=["rule", "always"])
    @pytest.mark.parametrize("engine, kernel_edges, traversed", [
        ("gemini", 9440, 3505), ("symple", 4005, 1694),
    ])
    def test_first_match_flattens_what_its_probe_left_open(
        self, monkeypatch, census_bfs_graph, probe, engine, kernel_edges,
        traversed,
    ):
        calls = first_match_census(monkeypatch, probe)
        config = RunConfig(machines=4, engine=engine, algorithm="bfs")
        with Session(census_bfs_graph, config) as session:
            result = session.run()
        assert calls
        for block, batch, flattened in calls:
            if block.total <= probe:
                assert flattened == block.total
            else:  # a missed head with more to scan: edges > 1
                left_open = batch.edges > 1
                assert flattened <= int((block.lens[left_open] - 1).sum())
        assert sum(int(batch.edges.sum()) for _, batch, _ in calls) == (
            kernel_edges
        )
        assert result.to_dict()["edges_traversed"] == traversed

    @pytest.mark.parametrize("probe, machines", [
        (csr._PROBE_EDGES, 1), (0, 4),
    ], ids=["rule", "always"])
    def test_a_walk_whose_every_head_hits_flattens_nothing(
        self, monkeypatch, census_bfs_graph, probe, machines,
    ):
        calls = first_match_census(monkeypatch, probe)
        graph = census_bfs_graph
        n = graph.num_vertices
        with Session(graph, RunConfig(machines=machines)) as session:
            with session.engine_context() as (engine, _, _):
                state = engine.new_state()
                state.add_array("frontier", bool, True)
                state.add_array("visited", bool, False)
                state.add_array("next_frontier", bool, False)
                state.add_array("parent", np.int64, -1)
                state.add_array("depth", np.int64, -1)
                state.add_scalar("level", 1)
                engine.pull(bottom_up_signal, _visit_slot, state,
                            np.ones(n, dtype=bool))
        assert calls
        for block, batch, flattened in calls:
            assert block.total > probe  # probed, not scanned whole
            assert flattened == 0
            assert batch.broke.all() and (batch.edges == 1).all()
        assert state.visited.sum() == (graph.in_degrees() > 0).sum()

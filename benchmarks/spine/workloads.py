"""The six spine workloads: inputs, set-up, one operation, output checks.

Every workload makes its inputs from the workload seed alone (graph,
roots, query sources, mutation schedule); the program only ever sees
those inputs.  A workload object is driven by :mod:`run` through four
calls: :meth:`prepare` (make the inputs), :meth:`setup` (everything up
to and including the first, cold operation), :meth:`op` (one warm
operation) and :meth:`verify` (twin / scratch / replay checks).  Each
operation returns the *observation* the output checks compare: the
fields ``expected.json`` pins, never a whole-result digest, so a field
added to ``RunResult.to_dict`` later does not force a re-pin.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import hostref
import serving
from repro.algorithms import SIGNAL_UDFS, IncrementalBFS, IncrementalCC
from repro.api import RunConfig, Session
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import MutationBatch
from repro.graph.generators import rmat

__all__ = ["WORKLOADS", "make_workload"]

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
SMOKE_SCALE = 10
#: fixes the structure of every input graph; the workload seed relabels
BASE_SEED = 20
NPROC = os.cpu_count() or 1
#: load model: connections / pool workers are sized for this host
PARALLEL = min(NPROC, 4)

Observation = Dict[str, Any]


# -- inputs --------------------------------------------------------------------


def relabelled_rmat(scale: int, seed: int):
    """The base R-MAT graph, undirected, relabelled by the workload seed.

    Every seed gets the *same structure* (``rmat(scale, 16, BASE_SEED)``,
    symmetrized) under a seeded permutation of the vertex ids, so the
    work an algorithm does - BFS levels, k-core peeling rounds, the
    repair a mutation causes - is the same under every seed, while the
    partition, the neighbour order and every id the program sees
    differ.  Fresh structure per seed made k-core take 4 to 6 rounds
    and its seconds differ by 25 %, which would drown any regression
    the driver looks for across seeds.  Returns ``(n, src, dst, perm,
    base_src, base_dst)`` with both edge lists sorted by (src, dst);
    the composite key cannot overflow below scale 31.
    """
    graph = rmat(scale=scale, edge_factor=16, seed=BASE_SEED)
    src, dst = graph.edge_array()
    n = graph.num_vertices
    base = np.unique(np.concatenate([src * n + dst, dst * n + src]))
    base_src, base_dst = base // n, base % n
    perm = np.random.default_rng(seed).permutation(n)
    # the hub keeps id 0: min-label propagation (CC) converges in as
    # many rounds as the smallest id is far from the rest, so a moving
    # minimum made dyn_stream's edges scanned differ by 15 % per seed
    hub = int(np.argmax(np.bincount(base_src, minlength=n)))
    zero = int(np.flatnonzero(perm == 0)[0])
    perm[zero], perm[hub] = perm[hub], 0
    keys = np.sort(perm[base_src] * n + perm[base_dst])
    return n, keys // n, keys % n, perm, base_src, base_dst


def degree_quantile_vertices(
    n: int, src: np.ndarray, quantiles: Tuple[float, ...]
) -> np.ndarray:
    """Non-isolated vertices at fixed quantiles of the degree order."""
    degrees = np.bincount(src, minlength=n)
    candidates = np.flatnonzero(degrees > 0)
    order = candidates[np.argsort(degrees[candidates], kind="stable")]
    picks = [int(q * (order.size - 1)) for q in quantiles]
    return order[picks]


PINNED_FIELDS = ("fixpoint", "extra", "edges_traversed", "dep_bytes",
                 "total_bytes", "simulated_time")


def observe(result: Dict[str, Any]) -> Observation:
    """The pinned fields of a ``RunResult.to_dict()`` (or the ``result``
    of a ``/query`` response, which is the same dict)."""
    return {name: result[name] for name in PINNED_FIELDS}


# -- batch workloads -----------------------------------------------------------


class BatchWorkload:
    """Closed loop, one caller: ``Session.run`` back to back."""

    name = "batch"
    engine = "symple"
    algorithm = "bfs"
    executor = "serial"
    machines = 8
    full_scale = 16
    warmups = 1
    setup_repeats = 2
    min_ops = 5
    serial = True  # one thread: kernels can be wrapped, the CPU pinned
    per_round_setup = False

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scale = SMOKE_SCALE if smoke else self.full_scale
        if smoke:
            self.setup_repeats = min(self.setup_repeats, 1)
            self.warmups = min(self.warmups, 1)
            self.min_ops = 3
        self.session: Optional[Session] = None
        self.last = None  # the most recent RunResult
        self.layer: Dict[str, float] = {}

    def prepare(self) -> None:
        (self.n, self.src, self.dst, self.perm,
         self.base_src, self.base_dst) = relabelled_rmat(self.scale, self.seed)
        self.edges = int(self.src.size)
        # the same structural vertices under every seed
        self.roots = tuple(int(v) for v in self.perm[degree_quantile_vertices(
            self.n, self.base_src, (0.5, 0.75, 0.9)
        )])

    def config(self, **overrides: Any) -> RunConfig:
        fields: Dict[str, Any] = dict(
            engine=self.engine,
            algorithm=self.algorithm,
            machines=self.machines,
            seed=self.seed,
            executor=self.executor,
            workers=PARALLEL if self.executor == "process" else None,
            kcore_k=8,
        )
        if self.algorithm == "bfs":
            fields["sources"] = self.roots
        fields.update(overrides)
        return RunConfig(**fields)

    def setup(self) -> Observation:
        """CSR build + Session open + partition + analysis + cold run."""
        self.close()
        graph = CSRGraph(self.n, self.src, self.dst)
        self.session = Session(graph, self.config())
        return self.op()

    def op(self) -> Observation:
        self.last = self.session.run()
        return observe(self.last.to_dict())

    def verify(self, reference: Observation, traced: bool) -> List[str]:
        """Workload-specific checks after the timed phase."""
        return []

    def side_layers(self, run_s: float) -> Dict[str, float]:
        """Layer metrics that take side runs; ``run_s`` is the median
        unpatched operation of the traced pass."""
        return {}

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class BfsSkew(BatchWorkload):
    name = "bfs_skew"

    def verify(self, reference: Observation, traced: bool) -> List[str]:
        # the bypass twin on the same graph and roots: equal fixpoint,
        # and its simulated time over ours is the paper's speedup
        twin = self.session.run(self.config(engine="gemini"))
        self.layer["runtime.sim_speedup_vs_gemini"] = (
            twin.simulated_time / reference["simulated_time"]
        )
        if twin.fixpoint != reference["fixpoint"]:
            return ["gemini twin reports a different fixpoint"]
        return []

    def side_layers(self, run_s: float) -> Dict[str, float]:
        """What the program's own tracer costs, against ``run_s``."""
        from repro.obs import Tracer

        tracer = Tracer()
        config = self.config(obs=tracer)
        observed = [
            hostref.timed(lambda: self.session.run(config))[1]
            for _ in range(3)
        ]
        return {
            "obs.trace_overhead_share": hostref.median(observed) / run_s - 1,
            "obs.events": len(tracer) / 3.0,
        }


class BfsGemini(BatchWorkload):
    name = "bfs_gemini"
    engine = "gemini"


class PagerankDense(BatchWorkload):
    name = "pagerank_dense"
    algorithm = "pagerank"
    full_scale = 14


class KcoreProcess(BatchWorkload):
    name = "kcore_process"
    algorithm = "kcore"
    executor = "process"
    serial = False

    def executor_stats(self) -> Dict[str, float]:
        stats = next(
            s for s in self.session.executor_stats().values()
            if s["kind"] == "process"
        )
        return {
            "exec.publish_bytes": float(stats["publish_bytes"]),
            "exec.delta_bytes": float(stats["delta_bytes"]),
            "exec.delta_grows": float(stats["delta_grows"]),
            "exec.spawns": float(stats["spawns"]),
        }

    def serial_op(self) -> Observation:
        return observe(self.session.run(
            self.config(executor="serial", workers=None)
        ).to_dict())

    def verify(self, reference: Observation, traced: bool) -> List[str]:
        problems = []
        if self.serial_op() != reference:
            problems.append("process run differs from its serial twin")
        self.layer.update(self.executor_stats())
        if self.layer["exec.spawns"] != 1:
            problems.append(
                f"worker pool spawned {self.layer['exec.spawns']:g} times"
            )
        return problems

    def side_layers(self, run_s: float) -> Dict[str, float]:
        serial = [hostref.timed(self.serial_op)[1] for _ in range(3)]
        return {
            "exec.overhead_share": (run_s - hostref.median(serial)) / run_s
        }


# -- dyn_stream ----------------------------------------------------------------


def mutation_schedule(
    n: int, src: np.ndarray, dst: np.ndarray, perm: np.ndarray,
    batches: int = 8, ops: int = 256,
) -> List[MutationBatch]:
    """Symmetric batches, inserts:deletes 2:1, valid in this order.

    Drawn on the base graph (``src``/``dst`` are its edges) and mapped
    through ``perm``, so every seed streams the same structural
    mutations.  Deletes name distinct edges of the input graph (each at
    most once over the schedule, so every one is live when its batch
    applies) and never an edge the same batch inserts.
    """
    rng = np.random.default_rng(BASE_SEED)
    n_ins = (2 * ops) // 3
    n_del = ops - n_ins
    forward = np.flatnonzero(src < dst)
    doomed = rng.choice(forward, size=batches * n_del, replace=False)
    schedule = []
    for b in range(batches):
        u = rng.integers(0, n, n_ins)
        v = rng.integers(0, n, n_ins)
        v = np.where(u == v, (u + 1) % n, v)
        picks = doomed[b * n_del:(b + 1) * n_del]
        du, dv = src[picks], dst[picks]
        inserted = np.concatenate([u * n + v, v * n + u])
        keep = ~np.isin(du * n + dv, inserted)
        du, dv = du[keep], dv[keep]
        schedule.append(MutationBatch(
            insert_src=perm[np.concatenate([u, v])],
            insert_dst=perm[np.concatenate([v, u])],
            delete_src=perm[np.concatenate([du, dv])],
            delete_dst=perm[np.concatenate([dv, du])],
        ))
    return schedule


class DynStream(BatchWorkload):
    """Writes beside reads: mutate -> incremental BFS -> incremental CC.

    One operation is the whole 8-batch stream, and every stream needs a
    fresh session with freshly computed handles, so each round is one
    set-up sample (CSR build, session, initial computes) followed by
    one run sample.
    """

    name = "dyn_stream"
    full_scale = 14
    warmups = 0
    setup_repeats = 0  # every round sets up before its stream
    per_round_setup = True

    def prepare(self) -> None:
        super().prepare()
        self.root = self.roots[-1]
        self.schedule = mutation_schedule(
            self.n, self.base_src, self.base_dst, self.perm
        )

    def config(self, **overrides: Any) -> RunConfig:
        return RunConfig(machines=self.machines, seed=self.seed,
                         bfs_roots=1, **overrides)

    def handles(self, session: Session):
        return IncrementalBFS(session, root=self.root), IncrementalCC(session)

    def setup(self) -> Observation:
        self.close()
        graph = CSRGraph(self.n, self.src, self.dst)
        self.session = Session(graph, self.config())
        self.bfs, self.cc = self.handles(self.session)
        return {
            "bfs_digest": self.bfs.refresh().digest(),
            "cc_digest": self.cc.refresh().digest(),
        }

    def op(self) -> Observation:
        compactions = 0
        for batch in self.schedule:
            stats = self.session.mutate(batch)
            compactions += bool(stats.compacted)
            bfs = self.bfs.refresh()
            cc = self.cc.refresh()
        self.layer["graph.overlay_edges"] = float(stats.overlay_edges)
        self.layer["graph.compactions"] = float(compactions)
        return {
            "bfs_digest": bfs.digest(),
            "cc_digest": cc.digest(),
            "version": stats.version,
            "num_edges": stats.num_edges,
        }

    def verify(self, reference: Observation, traced: bool) -> List[str]:
        """Incremental digests equal a from-scratch session's."""
        with Session(self.session.graph, self.config()) as scratch:
            bfs, cc = self.handles(scratch)
            bfs_result, bfs_s, _ = hostref.timed(bfs.refresh)
            cc_result, cc_s, _ = hostref.timed(cc.refresh)
        self.scratch_s = {"bfs": bfs_s, "cc": cc_s}
        problems = []
        if bfs_result.digest() != reference["bfs_digest"]:
            problems.append("incremental BFS differs from scratch")
        if cc_result.digest() != reference["cc_digest"]:
            problems.append("incremental CC differs from scratch")
        return problems


# -- serve_hot -----------------------------------------------------------------


class ServeHot:
    """Closed loop, ``PARALLEL`` keep-alive connections, hot-pool BFS."""

    name = "serve_hot"
    serial = False
    warmup_queries = 100
    setup_repeats = 3
    min_blocks = 4
    block_queries = 200  # ten samples beyond each block's p95
    hot_pool = 16
    machines = 4
    #: replaying a config costs about one engine run; the time cap of a
    #: run leaves room for this many (first-seen order, so every hot
    #: single-source config and the commonest merges are among them)
    max_replays = 120

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.warmup_queries, self.block_queries = 20, 40
            self.setup_repeats, self.min_blocks = 1, 3
        self.server: Optional[serving.Server] = None
        self.clients: List[serving.Client] = []
        self.layer: Dict[str, float] = {}
        self.responses: Dict[str, Dict[str, Any]] = {}

    def prepare(self) -> None:
        """Write the relabelled scale-10 graph where the server loads it."""
        n, src, dst, perm, base_src, _ = relabelled_rmat(
            SMOKE_SCALE, self.seed
        )
        self.n, self.edges = n, int(src.size)
        self.graph = CSRGraph(n, src, dst)  # for the replay check
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"serve_graph_{self.seed}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# vertices {n}\n")
            fh.writelines(f"{u} {v}\n" for u, v in zip(src.tolist(),
                                                       dst.tolist()))
        self.spec = f"file:{path}"
        base_sources = np.unique(base_src)  # non-isolated, base ids
        pool = np.random.default_rng(BASE_SEED).choice(
            base_sources, size=self.hot_pool, replace=False
        )
        self.sources = perm[base_sources]
        self.hot = perm[pool]
        self.rng = np.random.default_rng(self.seed)  # the query order

    def body(self, source: int) -> Dict[str, Any]:
        return {
            "graph": "bench",
            "config": {
                "engine": "symple", "algorithm": "bfs",
                "machines": self.machines, "seed": self.seed,
                "sources": [int(source)],
            },
        }

    def draw(self, count: int) -> List[int]:
        """90 % from the hot pool, 10 % uniform over non-isolated."""
        hot = self.rng.random(count) < 0.9
        picks = np.where(
            hot,
            self.rng.choice(self.hot, size=count),
            self.rng.choice(self.sources, size=count),
        )
        return [int(s) for s in picks]

    def setup(self) -> Observation:
        """Server start to ``/readyz``, then the first, cold query."""
        self.close()
        self.server = serving.Server(self.spec)
        self.server.start()
        self.clients = [
            serving.Client(self.server.port) for _ in range(PARALLEL)
        ]
        reply = self.clients[0].query(self.body(self.hot[0]))
        self.remember(reply)
        return observe(reply.payload["result"])

    def remember(self, reply: "serving.Reply") -> None:
        executed = reply.payload["executed_config"]
        key = json.dumps(executed, sort_keys=True)
        self.responses.setdefault(
            key, {"config": executed, "digest": reply.payload["digest"]}
        )

    def block(self, queries: int) -> Tuple[List["serving.Reply"], float]:
        """Every client sends its share, one request in flight each."""
        share = queries // len(self.clients)
        plans = [
            [self.body(s) for s in self.draw(share)] for _ in self.clients
        ]
        return serving.drive(self.clients, plans)

    def verify(self, reference: Observation, traced: bool) -> List[str]:
        """Replay distinct executed configs through Session.run."""
        problems = []
        with Session(self.graph) as session:
            for seen in list(self.responses.values())[:self.max_replays]:
                direct = session.run(RunConfig.from_dict(seen["config"]))
                if direct.digest() != seen["digest"]:
                    problems.append(
                        "served digest differs from direct Session.run of "
                        f"sources {seen['config']['sources']}"
                    )
        return problems

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {
    cls.name: cls
    for cls in (BfsSkew, BfsGemini, PagerankDense, KcoreProcess,
                ServeHot, DynStream)
}


def make_workload(name: str, seed: int, smoke: bool):
    return WORKLOADS[name](seed, smoke)


def kernel_share(algorithm: str) -> float:
    """Signal UDFs the analyzer classified to a kernel, over all."""
    from repro.analysis.instrument import instrument_signal

    udfs = SIGNAL_UDFS.get(algorithm, ())
    hits = sum(instrument_signal(fn).kernel is not None for fn in udfs)
    return hits / len(udfs) if udfs else 0.0


def verify_seconds(algorithm: str) -> float:
    """One strict ``verify_signal`` pass over the workload's UDFs."""
    from repro.analysis.verify import verify_signal

    def run() -> None:
        for fn in SIGNAL_UDFS.get(algorithm, ()):
            verify_signal(fn, strict=True)

    return hostref.timed(run)[1]

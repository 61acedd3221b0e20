"""Absolute guard for the one-relaxation-program rewrite (PR 16).

Every value below was recorded at the last commit that still had the
label-correcting loop written six times (sync ``sssp`` / ``cc``, the
incremental repair loop, and the three ``engine/async_mode.py``
drivers) and ``pagerank`` / ``kmeans`` / ``sampling`` as free
functions.  ``RunResult.digest()`` covers every counter, byte tally,
the simulated time and every ``extra`` value, so an equal digest says
the rewrite onto :class:`~repro.algorithms.relax.RelaxProgram` and the
``VertexProgram`` protocol moved none of them.

One intended change since: PR 19 gave incremental CC the BFS repair's
support pruning, so the six ``('cc', 'incremental', …)`` rows of
``PINNED_STREAM`` were re-recorded in their work columns (iterations,
edges, bytes, simulated time, counters hash — e.g. 5,111 → 118 edges
on the first batch).  Their result digests, and every other row, are
the PR 16 recording.

To re-record after an *intended* schedule change, run this file as a
script (``PYTHONPATH=src python tests/test_programs_pinned.py``) and
paste the printed tables.
"""

import hashlib
import json
from contextlib import contextmanager

import numpy as np
import pytest

from repro.algorithms import IncrementalBFS, IncrementalCC
from repro.api import RunConfig, Session
from repro.graph import MutationBatch, random_weights, rmat, to_undirected

MACHINES = 4
SEED = 5
ENGINES = ("symple", "gemini")
#: small skewed R-MAT, weighted so SSSP runs on the same graph
GRAPH = dict(scale=8, edge_factor=6, a=0.7, b=0.1, c=0.1, seed=7)

#: (algorithm, mode, async_bucket_width)
CASES = (
    ("sssp", "sync", None),
    ("cc", "sync", None),
    ("pagerank", "sync", None),
    ("kmeans", "sync", None),
    ("sampling", "sync", None),
    ("bfs", "async", None),
    ("bfs", "async", 3.0),
    ("sssp", "async", None),
    ("sssp", "async", 0.5),
    ("cc", "async", None),
    ("cc", "async", 3.0),
    ("pagerank", "async", None),
    ("pagerank", "async", 2.0),
)

#: (engine, algorithm, mode, width) -> (RunResult.digest(), fixpoint)
PINNED_RUNS = {('gemini', 'bfs', 'async', 3.0): ('f4a5b2f439f540500f6dbbbc88b55f4538cf18d83d99f2eed77fd59bea05d09d',
                                   '5b20cca42325e458fc32dac3019c9d9c685413c88cca5cd36223137f16687697'),
 ('gemini', 'bfs', 'async', None): ('123b2bbe251764f7334ca08347556cec36065072ff759ccb189b9da5fb3278c2',
                                    '5b20cca42325e458fc32dac3019c9d9c685413c88cca5cd36223137f16687697'),
 ('gemini', 'cc', 'async', 3.0): ('249c7cebd68630d4eb6e39ff156ac3fdade10f18dea24cce00bfc397b43583a2',
                                  'c4d77954200686464aaba5cdd26fe54273ed9b6f9b9e971f29006838d8e63246'),
 ('gemini', 'cc', 'async', None): ('2d7deff3300810e517bc0761bb87f878cabb738e39dc58add402dac46688934f',
                                   'c4d77954200686464aaba5cdd26fe54273ed9b6f9b9e971f29006838d8e63246'),
 ('gemini', 'cc', 'sync', None): ('f66f2814a451e73ff651ce0ad1731a729a32bc7b2a9485a8cd67a8853c33edc1',
                                  'c4d77954200686464aaba5cdd26fe54273ed9b6f9b9e971f29006838d8e63246'),
 ('gemini', 'kmeans', 'sync', None): ('3b473b8f3d261846aa61dcb18e6af03747025365d6e0cc3010a0285509f21909',
                                      None),
 ('gemini', 'pagerank', 'async', None): ('798dc4f3f11794fd80ed96cc3d2eb1897bcb2c34d06f5db7cbf7f25b92756763',
                                         None),
 ('gemini', 'pagerank', 'async', 2.0): ('7ec3b7ccee548738513a148cd02d4ca9e22247af093457164f3a1e2216f8846e',
                                        None),
 ('gemini', 'pagerank', 'sync', None): ('8accdbb390ce818784d2dae9cc0e403a5c1db251e1462c06160e9fe6b2cd68c6',
                                        None),
 ('gemini', 'sampling', 'sync', None): ('c1b2600b4eb8ed0555a816d359c83a903fec1b18d61450003830471f7bffa143',
                                        None),
 ('gemini', 'sssp', 'async', None): ('2db0096f03c71c8fdf68e5785c44d1b16984b92b2b9dc2e01e1f1dae4b2355c4',
                                     'b4387733c0d3c80401888594aaddacdf9ae4f5594757e6d6a5f4b533db347a12'),
 ('gemini', 'sssp', 'async', 0.5): ('48494af6f9f2572e255d035407ec5341f9ba7183378b19c3df4137dbd242ae51',
                                    'b4387733c0d3c80401888594aaddacdf9ae4f5594757e6d6a5f4b533db347a12'),
 ('gemini', 'sssp', 'sync', None): ('6b94067860706be9fb9d09cc6445945b848ab9ace7ef7096987883335a4fb4e1',
                                    'b4387733c0d3c80401888594aaddacdf9ae4f5594757e6d6a5f4b533db347a12'),
 ('symple', 'bfs', 'async', None): ('7c5175b8b49a1e94cc1635bb0182fb9261c9e0153743af759cb6ac09eb24e7f7',
                                    '5b20cca42325e458fc32dac3019c9d9c685413c88cca5cd36223137f16687697'),
 ('symple', 'bfs', 'async', 3.0): ('cc066f39393e21aabc2861c2235024f9b67224edf1e941b1d215c5877919dc5a',
                                   '5b20cca42325e458fc32dac3019c9d9c685413c88cca5cd36223137f16687697'),
 ('symple', 'cc', 'async', None): ('c2c45ac9c3225f6d6a774f2cfdb09b59579fb193bb797a60a1f979ee8d1d75a8',
                                   'c4d77954200686464aaba5cdd26fe54273ed9b6f9b9e971f29006838d8e63246'),
 ('symple', 'cc', 'async', 3.0): ('5cd81f4fa3abe92774fbfec3fb709ad7fad05876d4c401bc46c5bb476ecaae9c',
                                  'c4d77954200686464aaba5cdd26fe54273ed9b6f9b9e971f29006838d8e63246'),
 ('symple', 'cc', 'sync', None): ('d02d570bb955a5476a2ef23bbd97cf525afde94cf15c0c7f7eece342db95cade',
                                  'c4d77954200686464aaba5cdd26fe54273ed9b6f9b9e971f29006838d8e63246'),
 ('symple', 'kmeans', 'sync', None): ('73dcec824ffedc9d25773d3ceec87c2a881254d0eda22aea6f1ac7cb4eb23ceb',
                                      None),
 ('symple', 'pagerank', 'async', None): ('961d0e85aaee294631afb6602caef005fa4d239c6931ff0ba2b80cd9c6714ea9',
                                         None),
 ('symple', 'pagerank', 'async', 2.0): ('4812f436abffc50172009410021947799c3c5b40ff584f79b526fed40b930fb6',
                                        None),
 ('symple', 'pagerank', 'sync', None): ('bd99da350718b37b04d9bdaa0a3837559a23fa5c2be32856f83765779701c326',
                                        None),
 ('symple', 'sampling', 'sync', None): ('9f4cf8a6c9f7f9c5b09eb60d6c79134e0121df5a01e4d8292ef43aa5e0e4ef9c',
                                        None),
 ('symple', 'sssp', 'async', 0.5): ('051cb4415c6464eef1080d4026053e2b28a979f3ca9c0a411dee17907b300c57',
                                    'b4387733c0d3c80401888594aaddacdf9ae4f5594757e6d6a5f4b533db347a12'),
 ('symple', 'sssp', 'async', None): ('d2877f60ca2836633a6f29de738a2f606da404ae6948d7a6c8b6ccf46d29ee37',
                                     'b4387733c0d3c80401888594aaddacdf9ae4f5594757e6d6a5f4b533db347a12'),
 ('symple', 'sssp', 'sync', None): ('b85df2d6dfe0e7892e659bca5df9517ffd97c16f7008ccd2c8b87cc7b7f5fd0a',
                                    'b4387733c0d3c80401888594aaddacdf9ae4f5594757e6d6a5f4b533db347a12')}

#: engine -> per refresh, in order: (algorithm, mode, iterations,
#: result digest, edges traversed, total bytes, simulated time, sha256
#: over the engine's whole ``Counters.summary()``)
PINNED_STREAM = {'gemini': [('bfs', 'scratch', 7,
             '838bfa86ae8cbad34cf553b561b14aa3d42d207c554c7ef2543134f21ea178fb',
             4076, 4464, 2428.84,
             'c6adab58650debccc5f94a6819a5b0516dc01f6ddecc5bcc085237f3958788c1'),
            ('cc', 'scratch', 7,
             '59c7e6e28624da2249f126c7c417db4b03f5100ac2d72416efa362ebc66039f1',
             5321, 9344, 3180.64,
             '33bfee13e4a989c4da53db911f3a65d524d2e54fe74f701f70196b2f2aae88f1'),
            ('bfs', 'incremental', 2,
             'bce7761f10c8c435419dd069dc32a42d3212279d268381069a5920c468e7d837',
             76, 64, 254.83999999999997,
             '01ca56cb73c5a151b5fa45bdc778aae0faa629dc908e46f972eddbe2a7659001'),
            ('cc', 'incremental', 4,
             '9a2fb7c64a9244b6cb0e5d92ddad774a0147190d7770668d62e7d9bf75962439',
             118, 192, 512.02,
             '17dd13fae20e559996562abb61090109881866cd656e504da5ddadbbf2a4c063'),
            ('bfs', 'incremental', 5,
             '22121c4d23cbe746e2fb17c8a2e302b2566e57b3ac118d9c6c5b1fabfe80456f',
             734, 256, 824.8600000000001,
             '74c4f533560b983679a3507970c748b4e406622a6503fe9c1e4bf96eb4276357'),
            ('cc', 'incremental', 6,
             'b929e0219554d519ad6a59ffd3fa67bd758b072fb22f2a67b84463a53cacaa50',
             276, 224, 784.44,
             'bffc17cc67f14b8da6e6a2379d77a2f6e6abdd4058c094572a11e7e4e770b24b'),
            ('bfs', 'incremental', 3,
             'c9a06c288288c4a12e2658cc6747ffca7c5183abf140fa0e5330cae3ee42e9d0',
             349, 128, 458.18,
             '57d929f6e6bb744c4e1aae1613f2f07818379c90741140703f142a266f5bbf60'),
            ('cc', 'incremental', 3,
             '4f63e22764b682acee5994bce31249922101a310e5f167c3d8b290af724130c2',
             560, 112, 513.22,
             'ed813263bfc12ba4cd31496e6e78f7eb84b27283db8a4d001686a4dbbf63aa4d')],
 'symple': [('bfs', 'scratch', 7,
             '838bfa86ae8cbad34cf553b561b14aa3d42d207c554c7ef2543134f21ea178fb',
             4076, 8220, 2914.7499999999995,
             '63cb6f31c8b7c3d79abf5a95715cd22724b4c366ae47e0aa5a3921aa1cd25aa6'),
            ('cc', 'scratch', 7,
             '59c7e6e28624da2249f126c7c417db4b03f5100ac2d72416efa362ebc66039f1',
             5321, 14496, 3716.6099999999997,
             '87802d6a0e5e30207b7d893ca0e44d89ffbddc1c7b661cf4d6b167ff85040150'),
            ('bfs', 'incremental', 2,
             'bce7761f10c8c435419dd069dc32a42d3212279d268381069a5920c468e7d837',
             76, 136, 363.71000000000004,
             'db900d6f0afde7c20faa5bd657bb3192e0f4bd89e1ea1008c6a655153e24f23b'),
            ('cc', 'incremental', 4,
             '9a2fb7c64a9244b6cb0e5d92ddad774a0147190d7770668d62e7d9bf75962439',
             118, 288, 712.63,
             '6c04df3865c87a90d7b157c8e0c167fbf2417dc54ab14c09aa42a2ae0d3534e5'),
            ('bfs', 'incremental', 5,
             '22121c4d23cbe746e2fb17c8a2e302b2566e57b3ac118d9c6c5b1fabfe80456f',
             734, 703, 1103.98,
             'd41072440e1377706b856a39ccb48d418b8bdc1b696a644ef1b253d89881295c'),
            ('cc', 'incremental', 6,
             'b929e0219554d519ad6a59ffd3fa67bd758b072fb22f2a67b84463a53cacaa50',
             276, 350, 1083.1,
             '5fed7cf96d633a0d2a4d2213dba5dfa95dfc0bd1e601b0e3218fb582e9aa7d15'),
            ('bfs', 'incremental', 3,
             'c9a06c288288c4a12e2658cc6747ffca7c5183abf140fa0e5330cae3ee42e9d0',
             349, 431, 657.1600000000001,
             '41c181942731a97299e681b19823f5628670d241ce513b0bd51718dc5da23fc4'),
            ('cc', 'incremental', 3,
             '4f63e22764b682acee5994bce31249922101a310e5f167c3d8b290af724130c2',
             560, 463, 683.43,
             'abea2730e24091eaebb3c8f744a0c4418d76c8a3d21e9502df9af72933ca8605')]}


def build_graph():
    return random_weights(to_undirected(rmat(**GRAPH)), seed=3)


def run_case(graph, engine, algorithm, mode, width):
    config = RunConfig(
        engine=engine, algorithm=algorithm, machines=MACHINES, seed=SEED,
        bfs_roots=2, mode=mode, async_bucket_width=width,
    )
    with Session(graph, config) as session:
        result = session.run()
    return result.digest(), result.fixpoint


def three_batches(graph):
    """Fixed symmetric insert/delete batches valid against ``graph``."""
    rng = np.random.default_rng(11)
    n = graph.num_vertices
    src, dst = graph.edge_array()
    live = np.flatnonzero(src < dst)
    doomed = rng.choice(live, size=90, replace=False)
    batches = []
    for chunk in np.split(doomed, 3):
        u = rng.integers(0, n, size=6)
        v = (u + 1 + rng.integers(0, n - 1, size=6)) % n
        ds, dd = src[chunk], dst[chunk]
        batches.append(MutationBatch(
            insert_src=np.concatenate([u, v]),
            insert_dst=np.concatenate([v, u]),
            delete_src=np.concatenate([ds, dd]),
            delete_dst=np.concatenate([dd, ds]),
        ))
    return batches


def run_stream(engine_kind):
    graph = to_undirected(rmat(**GRAPH))
    config = RunConfig(engine=engine_kind, machines=MACHINES)
    log = []
    with Session(graph, config) as session:
        inner = session.engine_context

        @contextmanager
        def recording(*args, **kwargs):
            with inner(*args, **kwargs) as (engine, g, version):
                yield engine, g, version
                log.append(
                    (engine.counters.summary(), engine.execution_time())
                )

        session.engine_context = recording
        root = int(np.argmax(graph.out_degrees()))
        handles = (IncrementalBFS(session, root), IncrementalCC(session))
        rows = []
        for batch in [None] + three_batches(graph):
            if batch is not None:
                session.mutate(batch)
            for handle in handles:
                res = handle.refresh()
                counters, sim_time = log.pop()
                rows.append((
                    res.algorithm, res.mode, res.iterations, res.digest(),
                    counters["edges_traversed"], counters["total_bytes"],
                    sim_time,
                    hashlib.sha256(
                        json.dumps(counters, sort_keys=True).encode()
                    ).hexdigest(),
                ))
    return rows


@pytest.fixture(scope="module")
def graph():
    return build_graph()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("algorithm,mode,width", CASES)
def test_run_digest_and_fixpoint(graph, engine, algorithm, mode, width):
    pinned = PINNED_RUNS[(engine, algorithm, mode, width)]
    assert run_case(graph, engine, algorithm, mode, width) == pinned


@pytest.mark.parametrize("engine", ENGINES)
def test_incremental_stream(engine):
    rows = run_stream(engine)
    assert [r[1] for r in rows] == ["scratch"] * 2 + ["incremental"] * 6
    assert rows == PINNED_STREAM[engine]


if __name__ == "__main__":  # pragma: no cover - re-recording aid
    import pprint

    g = build_graph()
    runs = {
        (e, a, m, w): run_case(g, e, a, m, w)
        for e in ENGINES for (a, m, w) in CASES
    }
    print("PINNED_RUNS = ", end="")
    pprint.pprint(runs, width=79)
    print("PINNED_STREAM = ", end="")
    pprint.pprint({e: run_stream(e) for e in ENGINES}, width=79, compact=True)

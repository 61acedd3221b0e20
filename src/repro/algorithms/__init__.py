"""Graph algorithms expressed as signal-slot vertex programs.

:data:`SIGNAL_UDFS` maps each algorithm name to its signal UDF(s) so
static tooling — the ``repro verify`` subcommand, the
:class:`~repro.api.Session` pre-flight gate — can find the exact
functions a run would execute without importing engine internals.
"""

from repro.algorithms.alias import (
    AliasTable,
    build_alias_tables,
    sample_neighbors_alias,
)
from repro.algorithms.bfs import (
    BFSProgram,
    BFSResult,
    bfs,
    bottom_up_signal,
)
from repro.algorithms.cc import CCResult, cc_signal, connected_components
from repro.algorithms.incremental import (
    IncrementalBFS,
    IncrementalCC,
    IncrementalKCore,
    IncrementalResult,
    relax_depth_signal,
)
from repro.algorithms.kcore import (
    KCoreProgram,
    KCoreResult,
    PeelResult,
    coreness,
    kcore,
    kcore_peel,
    kcore_signal,
)
from repro.algorithms.kmeans import KMeansResult, kmeans, kmeans_signal
from repro.algorithms.mis import MISProgram, MISResult, mis, mis_signal
from repro.algorithms.pagerank import PageRankResult, pagerank, pagerank_signal
from repro.algorithms.sampling import (
    SamplingResult,
    sample_neighbors,
    sampling_signal,
)
from repro.algorithms.scc import SCCResult, scc, scc_reach_signal
from repro.algorithms.sssp import SSSPResult, sssp, sssp_signal
from repro.algorithms.registry import (
    ALGORITHMS,
    AlgorithmSpec,
    all_specs,
    get_spec,
    register,
    signal_udfs,
)

#: algorithm name -> the signal UDF(s) its driver hands to the engine;
#: the verification gate certifies exactly these before a run
#: (derived from the registry — register a spec, not a dict entry)
SIGNAL_UDFS = signal_udfs()

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "SIGNAL_UDFS",
    "all_specs",
    "get_spec",
    "register",
    "signal_udfs",
    "bfs",
    "bottom_up_signal",
    "BFSResult",
    "BFSProgram",
    "mis",
    "mis_signal",
    "MISResult",
    "MISProgram",
    "kcore",
    "KCoreProgram",
    "kcore_signal",
    "kcore_peel",
    "coreness",
    "KCoreResult",
    "PeelResult",
    "kmeans",
    "kmeans_signal",
    "KMeansResult",
    "sample_neighbors",
    "sampling_signal",
    "SamplingResult",
    "connected_components",
    "cc_signal",
    "CCResult",
    "IncrementalBFS",
    "IncrementalCC",
    "IncrementalKCore",
    "IncrementalResult",
    "relax_depth_signal",
    "pagerank",
    "pagerank_signal",
    "PageRankResult",
    "scc",
    "scc_reach_signal",
    "SCCResult",
    "sssp",
    "sssp_signal",
    "SSSPResult",
    "AliasTable",
    "build_alias_tables",
    "sample_neighbors_alias",
]

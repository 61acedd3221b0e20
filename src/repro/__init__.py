"""SympleGraph reproduction: distributed graph processing with a
precise loop-carried dependency guarantee (Zhuo et al., PLDI 2020),
executed on a simulated cluster with exact computation/communication
accounting and a calibrated timing model.

Quickstart::

    from repro import Session, RunConfig, rmat

    graph = rmat(scale=12, edge_factor=16, seed=7)
    with Session(graph) as session:
        result = session.run(RunConfig(engine="symple", algorithm="bfs",
                                       machines=16))
    print(result.simulated_time, result.digest())

For driving an engine by hand (custom algorithms, single phases),
``make_engine`` builds one directly.
"""

from repro.algorithms import (
    IncrementalBFS,
    IncrementalCC,
    IncrementalKCore,
    IncrementalResult,
    bfs,
    connected_components,
    coreness,
    kcore,
    kcore_peel,
    kmeans,
    mis,
    pagerank,
    sample_neighbors,
    scc,
    sssp,
)
from repro.api import Checkpointing, RunConfig, Session
from repro.analysis import (
    AnalyzedSignal,
    analyze_signal,
    explain_signal,
    fold_while,
    instrument_signal,
)
from repro.engine import (
    DGaloisEngine,
    GeminiEngine,
    SingleThreadEngine,
    SympleGraphEngine,
    SympleOptions,
    make_engine,
)
from repro.algorithms.registry import AlgorithmSpec, all_specs, get_spec
from repro.bench.harness import RunResult
from repro.errors import (
    AnalysisError,
    ConvergenceError,
    EngineError,
    FaultError,
    FaultPlanError,
    GraphError,
    InstrumentationError,
    MachineCrashError,
    MessageLossError,
    PartitionError,
    ReproError,
    UnsupportedAlgorithmError,
)
from repro.exec import (
    EXECUTOR_KINDS,
    Executor,
    SerialExecutor,
    make_executor,
)
from repro.fault import (
    CheckpointStore,
    CrashFault,
    FaultController,
    FaultPlan,
    MessageFault,
    StragglerFault,
    VertexProgram,
    run_program,
    run_recoverable,
)
from repro.graph import (
    CSRGraph,
    DynamicGraph,
    GraphBuilder,
    MutationBatch,
    MutationStats,
    erdos_renyi,
    rmat,
)
from repro.obs import (
    MetricsRegistry,
    ObsHub,
    Tracer,
    attribution_rows,
    fill_run_metrics,
    read_trace,
    rebuild_counters,
    reconstruct_breakdown,
    registry_breakdown,
    validate_events,
)
from repro.partition import (
    CartesianVertexCut,
    HashVertexCut,
    HybridCut,
    IncomingEdgeCut,
    OutgoingEdgeCut,
    Partition,
    RefreshStats,
    refresh_partition,
)
from repro.runtime import (
    DGALOIS_COST,
    GEMINI_COST,
    SINGLE_THREAD_COST,
    SYMPLE_COST,
    Bitmap,
    CostModel,
)

__version__ = "1.0.0"

__all__ = [
    # graph
    "CSRGraph",
    "DynamicGraph",
    "MutationBatch",
    "MutationStats",
    "GraphBuilder",
    "rmat",
    "erdos_renyi",
    # partition
    "Partition",
    "RefreshStats",
    "refresh_partition",
    "OutgoingEdgeCut",
    "IncomingEdgeCut",
    "HashVertexCut",
    "HybridCut",
    "CartesianVertexCut",
    # entry point
    "Session",
    "RunConfig",
    "Checkpointing",
    "RunResult",
    # algorithm registry
    "AlgorithmSpec",
    "all_specs",
    "get_spec",
    # executors
    "Executor",
    "SerialExecutor",
    "make_executor",
    "EXECUTOR_KINDS",
    # engines
    "make_engine",
    "GeminiEngine",
    "SympleGraphEngine",
    "SympleOptions",
    "DGaloisEngine",
    "SingleThreadEngine",
    # analysis
    "analyze_signal",
    "instrument_signal",
    "AnalyzedSignal",
    "fold_while",
    "explain_signal",
    # algorithms
    "bfs",
    "mis",
    "kcore",
    "kcore_peel",
    "coreness",
    "kmeans",
    "sample_neighbors",
    "connected_components",
    "pagerank",
    "scc",
    "sssp",
    "IncrementalBFS",
    "IncrementalCC",
    "IncrementalKCore",
    "IncrementalResult",
    # runtime
    "Bitmap",
    "CostModel",
    "GEMINI_COST",
    "SYMPLE_COST",
    "DGALOIS_COST",
    "SINGLE_THREAD_COST",
    # observability
    "ObsHub",
    "Tracer",
    "MetricsRegistry",
    "fill_run_metrics",
    "registry_breakdown",
    "read_trace",
    "validate_events",
    "rebuild_counters",
    "reconstruct_breakdown",
    "attribution_rows",
    # fault tolerance
    "FaultPlan",
    "CrashFault",
    "StragglerFault",
    "MessageFault",
    "FaultController",
    "CheckpointStore",
    "VertexProgram",
    "run_program",
    "run_recoverable",
    # errors
    "ReproError",
    "GraphError",
    "PartitionError",
    "AnalysisError",
    "InstrumentationError",
    "EngineError",
    "ConvergenceError",
    "UnsupportedAlgorithmError",
    "FaultPlanError",
    "FaultError",
    "MachineCrashError",
    "MessageLossError",
]

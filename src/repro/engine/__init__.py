"""Distributed engines: Gemini, SympleGraph, D-Galois, single-thread."""

from typing import Optional, Union

from repro.engine.base import BaseEngine, PhaseResult
from repro.engine.dgalois import DGaloisEngine
from repro.engine.gemini import GeminiEngine
from repro.engine.single_thread import SingleThreadEngine
from repro.engine.state import StateStore
from repro.engine.symple import (
    SympleGraphEngine,
    SympleOptions,
    circulant_machine_order,
    circulant_partition,
)
from repro.errors import EngineError
from repro.graph.csr import CSRGraph
from repro.partition.base import Partition
from repro.partition.edge_cut import OutgoingEdgeCut
from repro.partition.vertex_cut import CartesianVertexCut

__all__ = [
    "ASYNC_ENGINES",
    "BaseEngine",
    "PhaseResult",
    "GeminiEngine",
    "SympleGraphEngine",
    "SympleOptions",
    "DGaloisEngine",
    "SingleThreadEngine",
    "StateStore",
    "make_engine",
    "circulant_partition",
    "circulant_machine_order",
]

_ENGINES = {
    "gemini": GeminiEngine,
    "symple": SympleGraphEngine,
    "dgalois": DGaloisEngine,
    "single": SingleThreadEngine,
}
_ENGINE_KINDS = tuple(_ENGINES)
#: engine kinds whose phase protocol supports per-bucket activation
ASYNC_ENGINES = tuple(
    kind for kind, cls in _ENGINES.items() if cls.supports_async
)


def make_engine(
    kind: str,
    graph_or_partition: Union[CSRGraph, Partition],
    num_machines: int = 16,
    *,
    options: Optional[SympleOptions] = None,
    obs=None,
    executor=None,
    workers: Optional[int] = None,
    verify: str = "off",
) -> BaseEngine:
    """Build an engine with its canonical partition strategy.

    ``gemini`` and ``symple`` run on Gemini's chunked outgoing
    edge-cut; ``dgalois`` on the Cartesian vertex-cut it defaults to at
    scale; ``single`` on one machine.  Pass a pre-built
    :class:`Partition` to override the strategy.  ``obs`` attaches an
    observability hub (an :class:`~repro.obs.hooks.ObsHub`, a
    :class:`~repro.obs.tracer.Tracer`, or a trace-file path);
    ``executor`` selects the backend per-machine work runs on
    (``"serial"``/``"process"`` or an
    :class:`~repro.exec.Executor` instance) with ``workers`` bounding
    its concurrency.  ``verify`` gates the batched kernel fast path on
    static certification of each classification
    (``"warn"`` drops an uncertified kernel back to the per-vertex
    interpreter, ``"strict"`` raises
    :class:`~repro.errors.KernelSoundnessError`).

    This is the low-level constructor; :class:`repro.Session` with a
    :class:`repro.RunConfig` is the supported entry point for whole
    runs.
    """
    if kind not in _ENGINE_KINDS:
        raise EngineError(
            f"unknown engine kind {kind!r}; expected one of {_ENGINE_KINDS}"
        )
    if options is not None and kind != "symple":
        raise EngineError(
            f"options= is a SympleGraph knob; the {kind!r} engine does "
            "not accept it (drop it, or use kind='symple')"
        )
    if not isinstance(graph_or_partition, Partition) and num_machines < 1:
        raise EngineError(
            f"num_machines must be >= 1, got {num_machines}"
        )
    if workers is not None or executor is not None:
        from repro.exec import make_executor

        executor = make_executor(executor, workers=workers)

    if kind == "single":
        if isinstance(graph_or_partition, Partition):
            graph_or_partition = graph_or_partition.graph
        return SingleThreadEngine(
            graph_or_partition, obs=obs, executor=executor, verify=verify
        )

    if isinstance(graph_or_partition, Partition):
        partition = graph_or_partition
    else:
        cut = CartesianVertexCut() if kind == "dgalois" else OutgoingEdgeCut()
        partition = cut.partition(graph_or_partition, num_machines)
    extra = {} if options is None else {"options": options}
    return _ENGINES[kind](
        partition, obs=obs, executor=executor, verify=verify, **extra
    )

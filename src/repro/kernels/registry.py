"""Kernel registry: kind strings → batched CSR kernel implementations.

The registry decouples *classification* (``repro.analysis.kernelspec``
decides a UDF is, say, a ``first_match_break``) from *execution* (this
package provides a vectorized implementation for that kind).  Engines
look kinds up at pull time; an unknown kind simply means the batch is
interpreted per vertex, so registering a new kernel is purely additive.

A kernel is a callable::

    kernel(spec, state, local, vertices, carried_in=None, tables=None)
        -> KernelBatch

where ``spec`` is the :class:`~repro.analysis.kernelspec.KernelSpec`,
``state`` the :class:`~repro.engine.state.StateStore`, ``local`` what
is scanned — one :class:`~repro.partition.base.LocalAdjacency`, or a
:class:`~repro.kernels.csr.ScanBlock` of rows from several machines'
adjacencies (consecutive pull units sharing the call) — and
``vertices``, always the fourth positional argument, an int64 array of
the rows' destination vertices (all with nonzero local degree; under a
block, the units' sets concatenated in unit order).  ``carried_in``
optionally supplies restored loop-carried values as ``(present_mask,
values)`` arrays aligned with ``vertices`` (the circulant dependency
hand-off, in the fold's dtype), and ``tables`` per-vertex values of the
spec's neighbour-only roles (``KernelSpec.vertex_roles``) to gather per
edge in place of evaluating them; the pull walk always passes it.
Every array of the returned batch is per vertex, which is what lets a
caller cut a block's batch back into its units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "KernelBatch",
    "register_kernel",
    "get_kernel",
    "available_kernels",
]


@dataclass
class KernelBatch:
    """Result of one batched kernel invocation.

    All arrays align with the ``vertices`` argument of the kernel call.
    ``edges`` is the number of neighbors each vertex *actually scanned*
    (post-break), matching what ``CountingNeighbors`` would have
    counted; the engines charge their edge counters from it.  ``values``
    is only meaningful where ``emit_mask`` is set.  ``broke`` marks
    vertices whose scan ended in a ``break`` — the loop-carried control
    bit the circulant schedule forwards.  ``carried`` holds the final
    value of the single carried variable (only for kinds that carry
    one), which becomes the dependency *data* hand-off — in the fold's
    dtype (:func:`repro.kernels.csr.fold_dtype`), as restored values
    arrive in ``carried_in``.
    """

    edges: np.ndarray
    emit_mask: np.ndarray
    values: np.ndarray
    broke: Optional[np.ndarray] = None
    carried: Optional[np.ndarray] = None


Kernel = Callable[..., KernelBatch]

_REGISTRY: Dict[str, Kernel] = {}


def register_kernel(kind: str) -> Callable[[Kernel], Kernel]:
    """Class decorator/registration hook binding ``kind`` to a kernel.

    Later registrations override earlier ones, so downstream code can
    swap in alternative implementations (e.g. a numba build) without
    touching the engines.
    """

    def decorate(fn: Kernel) -> Kernel:
        _REGISTRY[kind] = fn
        return fn

    return decorate


def get_kernel(kind: str) -> Optional[Kernel]:
    """The kernel registered for ``kind``, or ``None``."""
    return _REGISTRY.get(kind)


def available_kernels() -> Tuple[str, ...]:
    """Registered kind strings, sorted for stable display."""
    return tuple(sorted(_REGISTRY))

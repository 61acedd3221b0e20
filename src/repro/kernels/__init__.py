"""Batched NumPy CSR kernels for classified signal UDFs.

The interpreter executes one Python call per (vertex, machine) pair —
correct, but the dominant wall-clock cost.  This package executes whole
per-(machine, step) candidate batches as NumPy array programs over the
flattened CSR neighbor segments, for UDFs the analyzer classified into
a known shape (:mod:`repro.analysis.kernelspec`).  Results, counters,
and simulated network traffic are bit-identical to the interpreter;
anything unclassified falls back to the per-vertex path, and
``SympleOptions.use_kernels=False`` (or ``use_kernels=False`` on the
baseline engines) turns the fast path off entirely.

Importing the package registers the built-in kernels; see
:func:`repro.kernels.registry.register_kernel` to add more.  The slot
side — the updates those kernels emit, applied to the state with one
ordered scatter per phase — is :mod:`repro.kernels.slots`, and the
sparse push's flat scan of the frontier's out-edges is
:func:`repro.kernels.csr.guarded_emit_scan` (called directly, not
registered: it returns per-edge emits, not a per-vertex batch); both
sit under the same switch and the same fallback contract.
"""

from repro.kernels import csr  # noqa: F401 - registers built-in kernels
from repro.kernels.registry import (
    KernelBatch,
    available_kernels,
    get_kernel,
    register_kernel,
)

__all__ = [
    "KernelBatch",
    "available_kernels",
    "get_kernel",
    "register_kernel",
]

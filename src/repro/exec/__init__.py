"""Pluggable executors: where per-machine work units run.

``SerialExecutor`` (default) runs tasks inline; ``ProcessPoolExecutor``
runs them concurrently with a deterministic merge, so both backends
produce bit-identical results, counters, and traffic.  The process
backend is a *persistent* pool over a shared-memory arena — workers
stay warm across runs and graph rebinds (see :mod:`repro.exec.process`
and :mod:`repro.exec.shm`).  See :mod:`repro.exec.base` for the
contract and :mod:`repro.exec.work` for the task functions.
"""

from repro.exec.base import (
    EXECUTOR_KINDS,
    Executor,
    SerialExecutor,
    make_executor,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "make_executor",
    "EXECUTOR_KINDS",
]


def __getattr__(name):
    # ProcessPoolExecutor pulls in multiprocessing; import on demand
    if name == "ProcessPoolExecutor":
        from repro.exec.process import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

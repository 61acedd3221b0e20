"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing the sub-domains (graph construction, partitioning,
UDF analysis, runtime execution).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Invalid graph construction or access (bad vertex ids, bad shapes)."""


class PartitionError(ReproError):
    """Invalid or inconsistent graph partition."""


class AnalysisError(ReproError):
    """UDF analysis failed (unsupported construct, no neighbor loop...)."""


class InstrumentationError(AnalysisError):
    """UDF instrumentation (source-to-source transform) failed."""


class KernelSoundnessError(AnalysisError):
    """A kernel classification failed certification.

    Raised by the abstract-interpretation certifier
    (:mod:`repro.analysis.verify`) when a UDF's derived effects exceed
    the contract of the :class:`~repro.analysis.kernelspec.KernelSpec`
    shape it was classified as.  Carries the violated ``obligation``
    id and the ``program_point`` (``file:line``) it was refuted at.
    """

    def __init__(
        self,
        message: str,
        obligation: str = "",
        program_point: str = "",
    ) -> None:
        prefix = f"{program_point}: " if program_point else ""
        tag = f" [{obligation}]" if obligation else ""
        super().__init__(f"{prefix}{message}{tag}")
        self.obligation = obligation
        self.program_point = program_point


class VerificationError(AnalysisError):
    """A strict verification run refused to certify a UDF or config."""


class EngineError(ReproError):
    """Distributed engine execution failed or was misconfigured."""


class DeadlineExceeded(EngineError):
    """A run passed the deadline its caller gave it (a served query
    whose requests all timed out); raised at a phase or step boundary,
    so no work unit is left in flight."""

    def __init__(self, phase: int, step: int = 0) -> None:
        super().__init__(
            f"run passed its deadline at phase {phase}, step {step}"
        )
        self.phase = phase
        self.step = step


class ConvergenceError(EngineError):
    """An iterative algorithm exceeded its iteration budget."""


class UnsupportedAlgorithmError(EngineError):
    """The engine cannot run this algorithm (e.g. sampling on D-Galois,
    which the paper also reports as N/A in Table 4)."""


class FaultPlanError(ReproError):
    """A fault plan is malformed or inconsistent with the cluster."""


class ServeError(ReproError):
    """The query service was misconfigured or refused a request."""


class FaultError(EngineError):
    """An injected fault interrupted execution.  Recoverable through
    :func:`repro.fault.run_recoverable`; fatal otherwise."""


class MachineCrashError(FaultError):
    """A simulated machine crashed mid-execution."""

    def __init__(self, machine: int, iteration: int, step: int = 0) -> None:
        super().__init__(
            f"machine {machine} crashed at iteration {iteration}, "
            f"step {step}"
        )
        self.machine = machine
        self.iteration = iteration
        self.step = step


class MessageLossError(FaultError):
    """A message could not be delivered within the retry budget —
    the destination is treated as unreachable (escalates to recovery)."""

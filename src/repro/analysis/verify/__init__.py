"""Soundness certifier: abstract interpretation for kernel contracts.

This subpackage turns two dynamic hopes into machine-checked, purely
static verdicts:

* **kernel soundness** — every :class:`~repro.analysis.kernelspec.KernelSpec`
  the classifier produces is cross-checked against an independent
  abstract interpretation of the UDF
  (:mod:`~repro.analysis.verify.interp` derives types, fold
  order-sensitivity, and read effects over the CFG;
  :mod:`~repro.analysis.verify.contracts` re-derives each shape's
  obligations).  A classification whose contract does not hold raises
  :class:`~repro.errors.KernelSoundnessError` with a cited program
  point.
* **executor determinism** — hazards that would break the parallel
  backends' bit-identical guarantee are flagged as lint rules
  (:mod:`~repro.analysis.verify.determinism`).

The driver here packages both into per-UDF :class:`UdfVerdict`\\ s and
an aggregated :class:`VerifyReport` with CI exit-code semantics,
behind three entry points mirroring the linter: :func:`verify_signal`,
:func:`verify_slot`, :func:`verify_targets`.  The same verdicts gate
execution through ``RunConfig(verify=...)`` and the ``repro verify``
CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.analysis.ast_analysis import analyze_parsed, parse_signal
from repro.analysis.kernelspec import classify_kernel
from repro.analysis.pushspec import PushMismatch, match_push
from repro.analysis.rules import LintConfig, LintMessage, lint_signal, lint_slot
from repro.analysis.slotspec import SlotMismatch, match_slot
from repro.analysis.verify.contracts import (
    CONTRACTS,
    certify_spec,
    contract_kinds,
    uncontracted_kernels,
)
from repro.analysis.verify.domain import FoldKind
from repro.analysis.verify.interp import UdfSummary, summarize
from repro.errors import AnalysisError, KernelSoundnessError

__all__ = [
    "UdfVerdict",
    "VerifyReport",
    "verify_signal",
    "verify_slot",
    "slot_shape_note",
    "push_shape_note",
    "verify_targets",
    "summarize",
    "UdfSummary",
    "certify_spec",
    "contract_kinds",
    "uncontracted_kernels",
    "CONTRACTS",
    "FoldKind",
    "KernelSoundnessError",
]

# verdict statuses, roughly worst-to-best
UNSOUND = "unsound"
ERROR = "error"
CERTIFIED = "certified"
UNCLASSIFIED = "unclassified"
NO_LOOP = "no-loop"
CHECKED = "checked"
REGISTRY = "registry"  # synthetic per-run verdict, not a UDF


@dataclass
class UdfVerdict:
    """Verification outcome for one UDF.

    ``status`` is ``"certified"`` (a kernel classification exists and
    its contract holds), ``"unsound"`` (the contract was refuted —
    always accompanied by an error-level ``kernel-unsound`` message),
    ``"unclassified"`` (neighbor loop but no kernel shape — the
    per-vertex interpreter runs, nothing to certify), ``"no-loop"``,
    ``"checked"`` (slots: lint rules only), ``"error"`` (the analyzer
    rejected the UDF), or ``"registry"`` (the synthetic per-run entry
    carrying registry-coverage warnings — not a UDF, excluded from the
    summary tally).
    """

    name: str
    kind: str  # "signal" | "slot" | "registry"
    status: str
    messages: List[LintMessage] = field(default_factory=list)
    spec_kind: Optional[str] = None

    @property
    def certified(self) -> bool:
        """Did a kernel classification pass its contract?"""
        return self.status == CERTIFIED


@dataclass
class VerifyReport:
    """Aggregated outcome of verifying one or more targets."""

    verdicts: List[UdfVerdict] = field(default_factory=list)

    @property
    def messages(self) -> List[LintMessage]:
        """Every finding, in verdict order."""
        return [m for v in self.verdicts for m in v.messages]

    @property
    def errors(self) -> List[LintMessage]:
        """Error-level findings (unsound kernels, analyzer rejections)."""
        return [m for m in self.messages if m.level == "error"]

    @property
    def warnings(self) -> List[LintMessage]:
        """Warning-level findings (determinism hazards and friends)."""
        return [m for m in self.messages if m.level == "warning"]

    @property
    def exit_code(self) -> int:
        """CI semantics, matching ``repro lint``: 2 errors, 1 warnings."""
        if self.errors:
            return 2
        if self.warnings:
            return 1
        return 0

    def summary(self) -> str:
        """One-line tally for the end of text output."""
        udfs = [v for v in self.verdicts if v.status != REGISTRY]
        certified = sum(1 for v in udfs if v.certified)
        unsound = sum(1 for v in udfs if v.status == UNSOUND)
        return (
            f"verified {len(udfs)} UDF(s): {certified} "
            f"certified, {unsound} unsound, {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )


def _config(strict: bool, config: Optional[LintConfig]) -> Optional[LintConfig]:
    if config is not None:
        return config
    if strict:
        from repro.analysis.rules import strict_config

        return strict_config()
    return None


def verify_signal(
    fn: Callable,
    strict: bool = False,
    config: Optional[LintConfig] = None,
    name: Optional[str] = None,
) -> UdfVerdict:
    """Verify one signal UDF: lint rules plus kernel certification.

    Purely static — neither the UDF nor any kernel runs.  ``strict``
    applies the promoted severities of
    :func:`repro.analysis.rules.strict_config` to the lint pass (the
    certification verdict is always error-level when refuted).
    """
    qualname = name or getattr(fn, "__name__", str(fn))
    verdict = UdfVerdict(name=qualname, kind="signal", status=NO_LOOP)
    try:
        sig = parse_signal(fn)
        info = analyze_parsed(sig)
        verdict.messages.extend(lint_signal(fn, _config(strict, config)))
    except AnalysisError as exc:
        verdict.status = ERROR
        verdict.messages.append(
            LintMessage("analysis-error", "error", f"{qualname}: {exc}",
                        func=qualname)
        )
        return verdict
    if not info.has_neighbor_loop:
        return verdict
    spec = classify_kernel(sig, info)
    if spec is None:
        verdict.status = UNCLASSIFIED
        verdict.messages.append(
            LintMessage(
                "kernel-unclassified",
                "note",
                f"{qualname} has no kernel classification; the "
                "per-vertex interpreter runs it (nothing to certify)",
                lineno=sig.func.lineno + sig.line_offset,
                func=qualname,
                path=sig.filename,
            )
        )
        return verdict
    verdict.spec_kind = spec.kind
    try:
        certify_spec(sig, info, spec)
    except KernelSoundnessError as exc:
        verdict.status = UNSOUND
        lineno = 0
        path = sig.filename
        if exc.program_point:
            path, _, line = exc.program_point.rpartition(":")
            lineno = int(line) if line.isdigit() else 0
        verdict.messages.append(
            LintMessage(
                "kernel-unsound",
                "error",
                f"{qualname}: {exc}",
                lineno=lineno,
                func=qualname,
                path=path or sig.filename,
            )
        )
        return verdict
    verdict.status = CERTIFIED
    verdict.messages.append(
        LintMessage(
            "kernel-certified",
            "note",
            f"{qualname}: {spec.kind} classification certified "
            "(shape and common obligations hold)",
            lineno=sig.func.lineno + sig.line_offset,
            func=qualname,
            path=sig.filename,
        )
    )
    return verdict


def verify_slot(
    fn: Callable,
    strict: bool = False,
    config: Optional[LintConfig] = None,
    name: Optional[str] = None,
) -> UdfVerdict:
    """Verify one slot UDF (the commutativity lint, strict-aware)."""
    qualname = name or getattr(fn, "__name__", str(fn))
    verdict = UdfVerdict(name=qualname, kind="slot", status=CHECKED)
    try:
        verdict.messages.extend(lint_slot(fn, _config(strict, config)))
    except AnalysisError as exc:
        verdict.status = ERROR
        verdict.messages.append(
            LintMessage("analysis-error", "error", f"{qualname}: {exc}",
                        func=qualname)
        )
    return verdict


def slot_shape_note(fn: Callable, name: Optional[str] = None) -> LintMessage:
    """Which ordered-scatter shape a slot classifies into
    (``slot-classified``, naming shape and written fields), or why it
    stays on the scalar slot loop (``slot-unclassified``, with every
    matcher's reason).  Purely informational: the classification is
    certified at run time, by translation validation under
    ``RunConfig(verify=...)``."""
    try:
        spec = match_slot(fn)
    except SlotMismatch as exc:
        code, text = "slot-unclassified", f"the scalar slot loop runs ({exc})"
    else:
        code = "slot-classified"
        text = f"{spec.describe()} (one ordered scatter applies a phase)"
    return _shape_note(fn, name, code, text)


def push_shape_note(fn: Callable, name: Optional[str] = None) -> LintMessage:
    """The push side of :func:`slot_shape_note`: the guard and value a
    push signal compiled to (``push-classified``), or why it stays on
    the per-edge loop (``push-unclassified``, with the matcher's
    reason).  Certified at run time the same way."""
    try:
        spec = match_push(fn)
    except PushMismatch as exc:
        code, text = "push-unclassified", f"the per-edge loop runs ({exc})"
    else:
        code = "push-classified"
        text = f"{spec.describe()} (one flat scan per machine runs a phase)"
    return _shape_note(fn, name, code, text)


def _shape_note(
    fn: Callable, name: Optional[str], code: str, text: str
) -> LintMessage:
    qualname = name or getattr(fn, "__name__", str(fn))
    location = getattr(fn, "__code__", None)
    return LintMessage(
        code,
        "note",
        f"{qualname}: {text}",
        lineno=location.co_firstlineno if location else 0,
        func=qualname,
        path=location.co_filename if location else "",
    )


def verify_targets(
    targets: List[str],
    strict: bool = False,
    config: Optional[LintConfig] = None,
    named_signals: Optional[dict] = None,
) -> VerifyReport:
    """Verify every UDF found under ``targets``.

    Target resolution (files, directories, dotted modules, built-in
    algorithm names) reuses the linter's discovery; registered kernel
    kinds without a certification contract are surfaced once per run
    as ``kernel-no-contract`` warnings.
    """
    # deferred: repro.analysis.linter imports the rules module, whose
    # import in turn registers this package's determinism rules
    from repro.analysis.linter import _load_module, discover_udfs

    report = VerifyReport()
    named_signals = named_signals or {}
    for target in targets:
        if target in named_signals:
            report.verdicts.append(
                verify_signal(
                    named_signals[target], strict, config, name=target
                )
            )
            continue
        try:
            modules = _load_module(target)
        except AnalysisError as exc:
            report.verdicts.append(
                UdfVerdict(
                    name=target,
                    kind="signal",
                    status=ERROR,
                    messages=[
                        LintMessage("load-error", "error", str(exc),
                                    func=target)
                    ],
                )
            )
            continue
        for module in modules:
            for name, fn, kind in discover_udfs(module):
                qualname = f"{module.__name__}.{name}"
                if kind == "slot":
                    verdict = verify_slot(fn, strict, config, name=qualname)
                    verdict.messages.append(slot_shape_note(fn, qualname))
                    report.verdicts.append(verdict)
                else:
                    verdict = verify_signal(fn, strict, config, name=qualname)
                    if kind == "push":
                        verdict.messages.append(push_shape_note(fn, qualname))
                    report.verdicts.append(verdict)
    uncovered = uncontracted_kernels()
    if uncovered:
        report.verdicts.append(
            UdfVerdict(
                name="<kernel-registry>",
                kind="registry",
                status=REGISTRY,
                messages=[
                    LintMessage(
                        "kernel-no-contract",
                        "warning",
                        f"registered kernel kind(s) {uncovered} have no "
                        "certification contract; classifications of "
                        "these kinds cannot be verified",
                    )
                ],
            )
        )
    return report

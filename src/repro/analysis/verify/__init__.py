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

The driver here packages both, with the lint rules of
:mod:`repro.analysis.rules`, into per-UDF :class:`UdfVerdict`\\ s and
an aggregated :class:`VerifyReport` with CI exit-code semantics, behind
three entry points: :func:`verify_signal`, :func:`verify_slot` and
:func:`verify_targets`, the one discover-and-check loop.  The same
verdicts gate execution through ``RunConfig(verify=...)``, and the
``repro verify`` CLI subcommand is this package's front end.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

from repro.analysis.ast_analysis import analyze_parsed, parse_signal
from repro.analysis.kernelspec import ShapeMismatch, classify_kernel
from repro.analysis.rules import (
    LintConfig,
    LintMessage,
    lint_signal,
    lint_slot,
    strict_config,
)
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
    "shape_note",
    "verify_targets",
    "discover_udfs",
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
    rejected the UDF, or the target did not load), or ``"registry"``
    (the synthetic per-run entry carrying registry-coverage warnings).
    Only ``"signal"`` and ``"slot"`` verdicts are UDFs; a ``"target"``
    that did not load and the ``"registry"`` entry are left out of the
    summary tally.
    """

    name: str
    kind: str  # "signal" | "slot" | "target" | "registry"
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
        """Error-level findings (unsound kernels, analyzer rejections,
        targets that did not load)."""
        return [m for m in self.messages if m.level == "error"]

    @property
    def warnings(self) -> List[LintMessage]:
        """Warning-level findings (determinism hazards and friends)."""
        return [m for m in self.messages if m.level == "warning"]

    @property
    def exit_code(self) -> int:
        """CI semantics: 2 on errors, 1 on warnings, 0 otherwise (notes
        are informational)."""
        if self.errors:
            return 2
        if self.warnings:
            return 1
        return 0

    def summary(self) -> str:
        """One-line tally for the end of text output."""
        udfs = [v for v in self.verdicts if v.kind in ("signal", "slot")]
        certified = sum(1 for v in udfs if v.certified)
        unsound = sum(1 for v in udfs if v.status == UNSOUND)
        return (
            f"verified {len(udfs)} UDF(s): {certified} "
            f"certified, {unsound} unsound, {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )


def _config(strict: bool, config: Optional[LintConfig]) -> Optional[LintConfig]:
    """``config`` with the strict promotions applied when ``strict``."""
    return strict_config(config) if strict else config


def _located(fn: Callable) -> dict:
    """``lineno`` / ``path`` of ``fn``'s ``def``, for a message about it."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return {"lineno": 0, "path": ""}
    return {"lineno": code.co_firstlineno, "path": code.co_filename}


def _rejected(verdict: UdfVerdict, fn: Callable, exc: AnalysisError) -> UdfVerdict:
    """The analyzer refused ``fn``: an ``analysis-error`` at its ``def``."""
    verdict.status = ERROR
    verdict.messages.append(
        LintMessage("analysis-error", "error", f"{verdict.name}: {exc}",
                    func=verdict.name, **_located(fn))
    )
    return verdict


def verify_signal(
    fn: Callable,
    strict: bool = False,
    config: Optional[LintConfig] = None,
    name: Optional[str] = None,
) -> UdfVerdict:
    """Verify one signal UDF: lint rules plus kernel certification.

    Purely static — neither the UDF nor any kernel runs.  ``strict``
    applies the promoted severities of
    :func:`repro.analysis.rules.strict_config` on top of ``config`` to
    the lint pass (the certification verdict is always error-level when
    refuted).
    """
    qualname = name or getattr(fn, "__name__", str(fn))
    verdict = UdfVerdict(name=qualname, kind="signal", status=NO_LOOP)
    try:
        sig = parse_signal(fn)
        info = analyze_parsed(sig)
        verdict.messages.extend(lint_signal(fn, _config(strict, config)))
    except AnalysisError as exc:
        return _rejected(verdict, fn, exc)
    if not info.has_neighbor_loop:
        return verdict
    spec = classify_kernel(sig, info)
    if spec is None:
        from repro.engine.fastpath import KERNEL

        verdict.status = UNCLASSIFIED
        verdict.messages.append(shape_note(KERNEL, fn, qualname))
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
        return _rejected(verdict, fn, exc)
    return verdict


def shape_note(path, fn: Callable, name: Optional[str] = None) -> LintMessage:
    """``<path>-classified``, naming what ``fn`` compiled to, or
    ``<path>-unclassified``, with why the oracle runs it — worded by
    ``path``'s row of :data:`repro.engine.fastpath.PATHS`.  Purely
    informational: a classification is certified at run time, under
    ``RunConfig(verify=...)``."""
    qualname = name or getattr(fn, "__name__", str(fn))
    try:
        spec = path.match(fn)
    except ShapeMismatch as exc:
        code = f"{path.name}-unclassified"
        text = path.unclassified.format(name=qualname, reason=exc)
    else:
        code = f"{path.name}-classified"
        text = path.classified.format(name=qualname, spec=spec.describe())
    return LintMessage(code, "note", text, func=qualname, **_located(fn))


def _sources(target: str) -> List[str]:
    """The ``.py`` files a directory target holds (``__*`` files
    skipped), or the target itself."""
    path = Path(target)
    if not path.is_dir():
        return [target]
    return [
        str(file) for file in sorted(path.rglob("*.py"))
        if not file.name.startswith("__")
    ]


def _load_module(source: str):
    """Import one ``.py`` file path or dotted module name.

    Whatever the import raises, a ``SystemExit`` included, becomes an
    :class:`~repro.errors.AnalysisError`, so one bad target cannot end
    or mask the rest of the run; ``KeyboardInterrupt`` still stops it.
    """
    path = Path(source)
    if path.suffix != ".py":
        try:
            return importlib.import_module(source)
        except (Exception, SystemExit) as exc:
            raise _unloadable(source, exc) from exc
    if not path.exists():
        raise AnalysisError(f"no such file: {source}")
    name = f"_repro_verify_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # register before exec so dataclasses/pickling inside the file work
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except (Exception, SystemExit) as exc:
        sys.modules.pop(name, None)
        raise _unloadable(source, exc) from exc
    return module


def _unloadable(source: str, exc: BaseException) -> AnalysisError:
    if isinstance(exc, SystemExit):
        exc = f"it called sys.exit({exc.code!r})"
    return AnalysisError(f"cannot import {source}: {exc}")


def discover_udfs(module) -> Iterator[Tuple[str, Callable, str]]:
    """Yield ``(name, fn, kind)`` for the UDFs a module defines.

    Public functions named like signals (``signal`` or ``*signal``)
    are checked with the signal rules; ``*slot`` functions with the slot
    rule — private ones too, which is how the bundled algorithms spell
    theirs; a three-parameter ``*signal``, private or not, is a push
    signal ``(u, v, state)`` and comes back as kind ``"push"``.
    Functions merely re-exported from elsewhere are skipped so package
    ``__init__`` files do not duplicate findings.
    """
    for name in sorted(vars(module)):
        if name.startswith("__"):
            continue
        fn = getattr(module, name)
        if not callable(fn) or not hasattr(fn, "__code__"):
            continue
        if getattr(fn, "__module__", None) != module.__name__:
            continue  # re-export; its home module reports it
        if name.endswith("slot"):
            yield name, fn, "slot"
        elif name.endswith("signal"):
            if fn.__code__.co_argcount == 3:
                yield name, fn, "push"
            elif not name.startswith("_"):
                yield name, fn, "signal"


def verify_targets(
    targets: List[str],
    strict: bool = False,
    config: Optional[LintConfig] = None,
    named_signals: Optional[dict] = None,
) -> VerifyReport:
    """Verify every UDF found under ``targets``.

    A target is a ``.py`` file, a directory (recursed for ``*.py``), a
    dotted module name, or a key of ``named_signals`` (the built-in
    algorithm names, for ``repro verify kcore``).  A file or module that
    does not import becomes a ``load-error`` and the rest of the run
    goes on; registered kernel kinds without a certification contract
    are surfaced once per run as ``kernel-no-contract`` warnings.
    """
    from repro.engine.fastpath import PUSH, SLOT

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
        for source in _sources(target):
            try:
                module = _load_module(source)
            except AnalysisError as exc:
                report.verdicts.append(
                    UdfVerdict(
                        name=source,
                        kind="target",
                        status=ERROR,
                        messages=[
                            LintMessage("load-error", "error", str(exc),
                                        func=source)
                        ],
                    )
                )
                continue
            for name, fn, kind in discover_udfs(module):
                qualname = f"{module.__name__}.{name}"
                if kind == "slot":
                    verdict = verify_slot(fn, strict, config, name=qualname)
                    verdict.messages.append(shape_note(SLOT, fn, qualname))
                else:
                    verdict = verify_signal(fn, strict, config, name=qualname)
                    if kind == "push":
                        verdict.messages.append(shape_note(PUSH, fn, qualname))
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

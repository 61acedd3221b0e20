"""Lint driver: discover signal UDFs in modules and run the rules.

This is the engine behind ``repro lint``: it resolves targets (a
``.py`` file, a package directory, a dotted module name, or a built-in
algorithm name), discovers the signal/slot UDFs each module defines,
runs :func:`repro.analysis.rules.lint_signal` /
:func:`~repro.analysis.rules.lint_slot` over them, and folds everything
into one :class:`LintRun` with CI-friendly exit-code semantics:

* ``0`` — clean, or notes only (informational),
* ``1`` — at least one warning,
* ``2`` — at least one error (a UDF the analyzer rejects, or a target
  that cannot be loaded at all).
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

from repro.analysis.rules import LintConfig, LintMessage, lint_signal, lint_slot
from repro.errors import AnalysisError

__all__ = ["LintRun", "discover_udfs", "run_lint"]


@dataclass
class LintRun:
    """Aggregated outcome of linting one or more targets."""

    messages: List[LintMessage] = field(default_factory=list)
    linted: List[str] = field(default_factory=list)  # qualified UDF names

    @property
    def errors(self) -> List[LintMessage]:
        """Findings at error level (analysis/load failures)."""
        return [m for m in self.messages if m.level == "error"]

    @property
    def warnings(self) -> List[LintMessage]:
        """Findings at warning level."""
        return [m for m in self.messages if m.level == "warning"]

    @property
    def notes(self) -> List[LintMessage]:
        """Findings at note level (never affect the exit code)."""
        return [m for m in self.messages if m.level == "note"]

    @property
    def exit_code(self) -> int:
        """CI semantics: 2 on errors, 1 on warnings, 0 otherwise."""
        if self.errors:
            return 2
        if self.warnings:
            return 1
        return 0

    def summary(self) -> str:
        """One-line tally for the end of text output."""
        return (
            f"linted {len(self.linted)} UDF(s): "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.notes)} note(s)"
        )


def _load_module(target: str):
    """Resolve one target string to a list of module objects.

    Accepts a ``.py`` file path, a directory (recursed for ``*.py``),
    or a dotted module/package name.
    """
    path = Path(target)
    if path.is_dir():
        modules = []
        for file in sorted(path.rglob("*.py")):
            if file.name.startswith("__"):
                continue
            modules.extend(_load_module(str(file)))
        return modules
    if path.suffix == ".py":
        if not path.exists():
            raise AnalysisError(f"no such file: {target}")
        name = f"_repro_lint_{path.stem}"
        spec = importlib.util.spec_from_file_location(name, path)
        if spec is None or spec.loader is None:  # pragma: no cover - defensive
            raise AnalysisError(f"cannot load {target}")
        module = importlib.util.module_from_spec(spec)
        # register before exec so dataclasses/pickling inside the file work
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except Exception as exc:
            sys.modules.pop(name, None)
            raise AnalysisError(f"cannot import {target}: {exc}") from exc
        return [module]
    try:
        return [importlib.import_module(target)]
    except ImportError as exc:
        raise AnalysisError(f"cannot import {target}: {exc}") from exc


def discover_udfs(module) -> Iterator[Tuple[str, Callable, str]]:
    """Yield ``(name, fn, kind)`` for the UDFs a module defines.

    Public functions named like signals (``signal`` or ``*signal``)
    are linted with the signal rules; ``*slot`` functions with the slot
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


def run_lint(
    targets: List[str],
    config: Optional[LintConfig] = None,
    named_signals: Optional[dict] = None,
) -> LintRun:
    """Lint every UDF found under ``targets``.

    ``named_signals`` optionally maps short names (the built-in
    algorithm registry) to signal functions, so ``repro lint kcore``
    works alongside file and module targets.  Failures to load a
    target or analyze a UDF become error-level findings rather than
    exceptions, so one bad file does not mask the rest of the run.
    """
    run = LintRun()
    named_signals = named_signals or {}
    for target in targets:
        if target in named_signals:
            _lint_one(run, target, named_signals[target], "signal", config)
            continue
        try:
            modules = _load_module(target)
        except AnalysisError as exc:
            run.messages.append(
                LintMessage("load-error", "error", str(exc), func=target)
            )
            continue
        for module in modules:
            for name, fn, kind in discover_udfs(module):
                _lint_one(run, f"{module.__name__}.{name}", fn, kind, config)
    run.messages.sort(key=lambda m: (m.path, m.lineno, m.code))
    return run


def _lint_one(
    run: LintRun,
    qualname: str,
    fn: Callable,
    kind: str,
    config: Optional[LintConfig],
) -> None:
    """Lint one UDF, folding analyzer rejections into the run."""
    run.linted.append(qualname)
    try:
        if kind == "slot":
            run.messages.extend(lint_slot(fn, config))
        else:
            run.messages.extend(lint_signal(fn, config))
    except AnalysisError as exc:
        code = getattr(fn, "__code__", None)
        run.messages.append(
            LintMessage(
                "analysis-error",
                "error",
                f"{qualname}: {exc}",
                lineno=code.co_firstlineno if code else 0,
                func=qualname,
                path=code.co_filename if code else "",
            )
        )

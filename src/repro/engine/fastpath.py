"""One fast-path mechanism: classify → compatible → fast → oracle → verdict.

Four places in an engine run a UDF one of two ways — an array *fast*
path when the UDF classifies into a shape the state's layout fits, and
a scalar *oracle* that is always right:

* ``kernel`` — a pull signal on a batched kernel, or the per-vertex
  interpreter;
* ``slot`` — a phase's updates by one ordered scatter, or the scalar
  slot loop;
* ``push`` — a push unit as one flat scan, or the per-edge loop;
* ``block`` — a pull step's units sharing kernel calls, or each unit in
  a call of its own (it rides on ``kernel``).

:data:`PATHS` has one :class:`FastPath` row per place, and
:class:`FastPaths` is an engine's one copy of the policy around them:
under ``verify != "off"`` the first answer of each ``(function, path)``
is compared with the oracle's — ``kernel``'s statically, by the
contract certifier before its first run, the others by replay.  On a
difference ``"strict"`` raises :class:`~repro.errors.KernelSoundnessError`
and ``"warn"`` warns once and answers with the oracle for the engine's
lifetime.  ``repro verify``'s shape notes and the CI gate on them
(:func:`unexcused`) read the same rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.kernelspec import ShapeSpec, match_kernel
from repro.analysis.pushspec import classify_push, match_push
from repro.analysis.slotspec import classify_slot, match_slot
from repro.errors import KernelSoundnessError
from repro.kernels import get_kernel

__all__ = [
    "FastPath",
    "FastPaths",
    "Entry",
    "KERNEL",
    "SLOT",
    "PUSH",
    "BLOCK",
    "PATHS",
    "unexcused",
]


def _contracts_hold(fn, spec, _) -> List[str]:
    """The static certifier, which raises the refutation itself (its
    obligation names the contract clause)."""
    from repro.analysis.ast_analysis import analyze_parsed, parse_signal
    from repro.analysis.verify import certify_spec

    sig = parse_signal(fn)
    certify_spec(sig, analyze_parsed(sig), spec)
    return []


def _same(a, b) -> bool:
    """Arrays by dtype and bytes, containers element by element."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _same_units(fn, results, oracle) -> List[str]:
    """Work-unit results — a push unit's dict per machine, a walk's one
    array set per executor chunk — key for key; seconds are not
    results."""
    return sorted({
        key
        for res, ref in zip(results, oracle)
        for key in ref
        if not key.endswith("_seconds") and not _same(res.get(key), ref[key])
    })


def _arrays(state) -> List[str]:
    return [n for n in state if isinstance(getattr(state, n), np.ndarray)]


def _same_slot(fn, fast, oracle) -> List[str]:
    """``(state, (changed, applied))`` after the scatter and after the
    scalar loop on a copy of the state."""
    (state, (changed, applied)), (shadow, (want, want_applied)) = fast, oracle
    differing = [
        name for name in _arrays(state)
        if getattr(state, name).tobytes() != getattr(shadow, name).tobytes()
    ]
    if not np.array_equal(changed, want):
        differing.append("changed")
    if applied != want_applied:
        differing.append("applied")
    return differing


def _adopt_shadow(fast, oracle):
    """The scalar loop's arrays, written into the live ones in place
    (they may be shared-memory views)."""
    for name in _arrays(fast[0]):
        getattr(fast[0], name)[...] = getattr(oracle[0], name)
    return oracle


@dataclass(frozen=True, eq=False)
class FastPath:
    """One row.  ``classify(subject)`` gives the spec or None,
    ``compatible(spec, state)`` is the per-phase layout check, and
    ``same(fn, fast, oracle)`` lists what two answers differ on
    (``static`` rows compare before the first run, without an oracle
    answer); ``answer(fast, oracle)`` is what ``"warn"`` answers with,
    and ``subject`` and ``differ`` word the refutation.  ``match``
    (raising :class:`~repro.analysis.kernelspec.ShapeMismatch`) and the
    note templates feed ``repro verify``; ``excused`` names the bundled
    UDFs the oracle runs on purpose, with why."""

    name: str
    obligation: str
    subject: str
    same: Callable[[Callable, Any, Any], List[str]]
    classify: Callable[[Any], Optional[ShapeSpec]] = lambda subject: None
    compatible: Callable[[ShapeSpec, Any], bool] = (
        lambda spec, state: spec.compatible(state)
    )
    differ: str = ""
    static: bool = False
    answer: Callable[[Any, Any], Any] = lambda fast, oracle: oracle
    match: Optional[Callable[[Callable], ShapeSpec]] = None
    classified: str = ""
    unclassified: str = ""
    excused: Dict[str, str] = field(default_factory=dict)


KERNEL = FastPath(
    "kernel", "kernel-contract", "kernel fast path", _contracts_hold,
    classify=lambda analyzed: analyzed.kernel,
    compatible=lambda spec, state: (
        get_kernel(spec.kind) is not None and spec.compatible(state)
    ),
    static=True,
    match=match_kernel,
    unclassified="{name} has no kernel classification; the per-vertex "
    "interpreter runs it (nothing to certify)",
    excused={
        "sampling_signal": "a prefix sum that breaks on its running value",
        "sssp_signal": "a fold whose term looks a weight up by method call",
    },
)
SLOT = FastPath(
    "slot", "slot-equivalence", "slot fast path", _same_slot,
    classify=classify_slot,
    differ="the {shape} scatter of {name} and the scalar slot loop",
    answer=_adopt_shadow,
    match=match_slot,
    classified="{name}: {spec} (one ordered scatter applies a phase)",
    unclassified="{name}: the scalar slot loop runs ({reason})",
    excused={
        "_select_slot": "its guard reads a value-dependent write, which "
        "does not constant-fold to taken",
        "_async_visit_slot": "it reads s.depth[parent], a cell another "
        "update of the phase may write",
    },
)
PUSH = FastPath(
    "push", "push-equivalence", "push fast path", _same_units,
    classify=classify_push,
    differ="the flat scan of {name} and the per-edge loop",
    match=match_push,
    classified="{name}: {spec} (one flat scan per machine runs a phase)",
    unclassified="{name}: the per-edge loop runs ({reason})",
)
BLOCK = FastPath(
    "block", "block-equivalence", "block scan", _same_units,
    differ="the block scan of {name} and its per-unit scan",
)
PATHS: Tuple[FastPath, ...] = (KERNEL, SLOT, PUSH, BLOCK)


@dataclass
class Entry:
    """A function's spec on one path and its verdict — None until
    compared.  Holding ``fn`` keeps its id from being reused."""

    fn: Callable
    spec: Optional[ShapeSpec] = None
    verdict: Optional[bool] = None


class FastPaths:
    """One engine's verify mode and verdicts, cached per
    ``(id(fn), path name)``."""

    def __init__(self, verify: str) -> None:
        self.verify = verify
        self.cache: Dict[Tuple[int, str], Entry] = {}

    def entry(self, path: FastPath, fn: Callable) -> Optional[Entry]:
        """``fn``'s entry on ``path``, if it has one yet."""
        return self.cache.get((id(fn), path.name))

    def plan(self, path: FastPath, fn, state, subject=None):
        """The spec ``fn`` runs through on ``path`` against ``state``, or
        None for the oracle; ``subject`` is what ``path`` classifies
        when that is not ``fn`` (a kernel's analyzed signal)."""
        entry = self.cache.get((id(fn), path.name))
        if entry is None:
            spec = path.classify(fn if subject is None else subject)
            entry = self.cache[id(fn), path.name] = Entry(fn, spec)
        spec = entry.spec
        if spec is None or entry.verdict is False:
            return None
        if path.static and entry.verdict is None and self.verify != "off":
            spec = self.certified(path, fn, spec, None)
        if spec is None or not path.compatible(spec, state):
            return None
        return spec

    def holds(self, path: FastPath, fn: Callable, spec) -> bool:
        """Does ``spec``, ``fn``'s classification on the ``static``
        row ``path``, keep its contract, whether or not it runs?  Under
        ``verify != "off"`` it is certified on first ask, as
        :meth:`plan` would before the first run."""
        entry = self.cache.setdefault((id(fn), path.name), Entry(fn, spec))
        if entry.verdict is None and self.verify != "off":
            self.certified(path, fn, spec, None)
        return entry.verdict is not False

    def checking(self, path: FastPath, fn: Callable) -> bool:
        """Is ``fn``'s next fast answer on ``path`` to be compared?"""
        if self.verify == "off":
            return False
        entry = self.cache.get((id(fn), path.name))
        return entry is None or entry.verdict is None

    def refuted(self, path: FastPath, fn: Callable) -> bool:
        """Did ``fn``'s fast answer on ``path`` differ from the oracle's?"""
        entry = self.cache.get((id(fn), path.name))
        return entry is not None and entry.verdict is False

    def certified(self, path: FastPath, fn: Callable, fast, oracle):
        """``fast`` when it answers like ``oracle`` (the verdict is
        cached); else ``"strict"`` raises and ``"warn"`` warns and
        answers with the oracle."""
        entry = self.cache.setdefault((id(fn), path.name), Entry(fn))
        name = getattr(fn, "__name__", "?")
        try:
            differing = path.same(fn, fast, oracle)
        except KernelSoundnessError as exc:
            error, message = exc, str(exc)
        else:
            entry.verdict = not differing
            if not differing:
                return fast
            message = path.differ.format(
                name=name, shape=getattr(entry.spec, "shape", "")
            ) + f" differ on {differing}"
            error = KernelSoundnessError(message, obligation=path.obligation)
        entry.verdict = False
        if self.verify == "strict":
            raise error
        warnings.warn(
            f"{path.subject} disabled for {name}: {message}",
            RuntimeWarning,
            stacklevel=4,
        )
        return path.answer(fast, oracle)


def unexcused(messages) -> List[str]:
    """``code: function`` of each ``<path>-unclassified`` note among a
    verify report's ``messages`` that no row excuses: a UDF that fell
    to its oracle without a stated reason."""
    return sorted(
        f"{m.code}: {m.func}"
        for m in messages
        for path in PATHS
        if m.code == f"{path.name}-unclassified"
        and m.func.rpartition(".")[2] not in path.excused
    )

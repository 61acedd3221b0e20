"""Executor-safety rules: determinism hazards under parallel backends.

The process executor (:mod:`repro.exec`) promises bit-identical
results with the serial reference order.  That promise holds because
the parent merges per-machine results in item order — but only if each
task function itself computes a machine-independent answer.  Two
hazard classes slip past the purity checker because they are not
*writes*:

* **mutable capture** — a UDF closing over a module-level list, dict,
  set, bytearray, or ndarray reads (and often mutates) an object that
  is live in-process under the serial backend but *copied* under fork,
  so the two backends silently diverge;
* **unordered iteration** — iterating a ``set`` literal, a set
  comprehension, or a ``set()``/``frozenset()`` call inside the UDF
  makes the scan order hash-dependent, which is exactly the order the
  loop-carried dependency machinery must be able to replay.

Both surface as lint rules through the PR 1 engine (so ``repro lint``,
``repro verify``, and the SARIF writers all report them); the other
two hazard classes the tentpole names — writes outside the delta API
and unseeded RNG calls — are already covered by the purity rules
``state-mutation``/``global-write`` and ``nondet-call``.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator, Tuple

from repro.analysis.rules import Finding, LintContext, rule

__all__ = ["mutable_capture", "unordered_iteration"]

_MUTABLE_TYPES = (list, dict, set, bytearray)


def _is_mutable(value: object) -> bool:
    """Is a captured global a shared-mutable object worth flagging?

    Modules, callables, and immutable scalars are fine; containers and
    ndarrays are the live-in-process / copied-under-fork hazard.
    """
    if isinstance(value, _MUTABLE_TYPES):
        return True
    return type(value).__name__ == "ndarray"


def _free_names(ctx: LintContext) -> Iterator[Tuple[str, ast.Name]]:
    """Loaded names bound neither as parameters nor as locals."""
    bound = set(ctx.sig.params) | set(ctx.rd.local_vars)
    seen = set()
    for node in ast.walk(ctx.sig.func):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id not in bound
            and node.id not in seen
        ):
            seen.add(node.id)
            yield node.id, node


@rule("mutable-capture", "warning")
def mutable_capture(ctx: LintContext) -> Iterator[Finding]:
    """A signal UDF closing over a module-level mutable object (list,
    dict, set, bytearray, ndarray) reads shared state the executors
    cannot isolate: inline tasks see every earlier mutation, forked
    processes see a stale copy, so the process backend diverges from
    the serial reference.  Pass the object through the state parameter instead —
    state is what the engines replicate and synchronize."""
    for name, node in _free_names(ctx):
        if name not in ctx.sig.globals:
            continue  # builtin or truly undefined; not a capture
        value = ctx.sig.globals[name]
        if callable(value) or not _is_mutable(value):
            continue
        yield (
            f"captures module-level {type(value).__name__} {name!r}; "
            "live under the serial backend, copied under the process "
            "backend — pass it through the state parameter instead",
            node,
        )


def _unordered_iter(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
        and getattr(builtins, node.func.id, None) is not None
    )


@rule("unordered-iteration", "warning")
def unordered_iteration(ctx: LintContext) -> Iterator[Finding]:
    """Iterating a set inside a signal UDF makes the visit order
    hash-dependent (and, for str keys, per-process under hash
    randomization).  The loop-carried dependency machinery must be
    able to replay a scan deterministically — iterate a sorted or
    list-backed sequence instead."""
    for node in ast.walk(ctx.sig.func):
        iters = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _unordered_iter(it):
                yield (
                    f"iterates {ast.unparse(it)}, an unordered set; the "
                    "visit order is hash-dependent and cannot be "
                    "replayed deterministically across machines",
                    it,
                )

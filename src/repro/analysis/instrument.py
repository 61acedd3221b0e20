"""UDF instrumentation pass (the paper's Section 4.2, second pass).

Given a signal UDF with loop-carried dependency, generate the
dependency-aware variant the distributed framework executes.  The
transformation mirrors Figure 5 of the paper:

* append a ``dep`` parameter (the per-vertex dependency handle the
  framework circulates between machines — ``receive_dep`` is the act of
  being handed this state);
* prologue: ``if dep.skip: return`` — the control dependency check;
* after each carried variable's initialization, restore its value from
  the dependency state (``x = dep.load('x', x)``);
* before every ``break``, persist carried state and mark the control
  bit (``dep.store(...)``, ``dep.mark_break()`` — the paper's
  ``emit_dep``);
* at normal loop exit, persist carried state so the next machine
  resumes the fold exactly where this one stopped.

The generated source is kept (``AnalyzedSignal.instrumented_source``)
so users can inspect what the "compiler" produced, and is compiled in
the original function's global namespace so closures over module-level
helpers keep working.
"""

from __future__ import annotations

import ast
import types
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

from repro.analysis.ast_analysis import (
    DependencyInfo,
    SignalAst,
    analyze_parsed,
    parse_signal,
)
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import ReachingDefinitions, definitely_assigned_at
from repro.analysis.kernelspec import KernelSpec, classify_kernel
from repro.errors import InstrumentationError

__all__ = ["AnalyzedSignal", "instrument_signal"]

DEP_PARAM = "dep"


@dataclass
class AnalyzedSignal:
    """A signal UDF together with its dependency-aware compiled form."""

    original: Callable
    info: DependencyInfo
    instrumented: Optional[Callable] = None
    instrumented_source: Optional[str] = None
    kernel: Optional[KernelSpec] = None

    @property
    def has_dependency(self) -> bool:
        return self.info.has_dependency


def _store_stmts(carried: tuple[str, ...]) -> list[ast.stmt]:
    """``dep.store('x', x)`` for every carried variable."""
    stmts: list[ast.stmt] = []
    for name in carried:
        call = ast.Expr(
            value=ast.Call(
                func=ast.Attribute(
                    value=ast.Name(id=DEP_PARAM, ctx=ast.Load()),
                    attr="store",
                    ctx=ast.Load(),
                ),
                args=[
                    ast.Constant(value=name),
                    ast.Name(id=name, ctx=ast.Load()),
                ],
                keywords=[],
            )
        )
        stmts.append(call)
    return stmts


def _mark_break_stmt() -> ast.stmt:
    """``dep.mark_break()`` — the paper's emit_dep for the control bit."""
    return ast.Expr(
        value=ast.Call(
            func=ast.Attribute(
                value=ast.Name(id=DEP_PARAM, ctx=ast.Load()),
                attr="mark_break",
                ctx=ast.Load(),
            ),
            args=[],
            keywords=[],
        )
    )


def _skip_prologue() -> ast.stmt:
    """``if dep.skip: return``"""
    return ast.If(
        test=ast.Attribute(
            value=ast.Name(id=DEP_PARAM, ctx=ast.Load()),
            attr="skip",
            ctx=ast.Load(),
        ),
        body=[ast.Return(value=None)],
        orelse=[],
    )


def _restore_stmt(name: str) -> ast.stmt:
    """``x = dep.load('x', x)``"""
    return ast.Assign(
        targets=[ast.Name(id=name, ctx=ast.Store())],
        value=ast.Call(
            func=ast.Attribute(
                value=ast.Name(id=DEP_PARAM, ctx=ast.Load()),
                attr="load",
                ctx=ast.Load(),
            ),
            args=[
                ast.Constant(value=name),
                ast.Name(id=name, ctx=ast.Load()),
            ],
            keywords=[],
        ),
    )


class _BreakInstrumenter(ast.NodeTransformer):
    """Insert store + mark_break before each break of the neighbor loop."""

    def __init__(self, carried: tuple[str, ...]) -> None:
        self.carried = carried

    def _instrument_body(self, body: list[ast.stmt]) -> list[ast.stmt]:
        new_body: list[ast.stmt] = []
        for stmt in body:
            if isinstance(stmt, ast.Break):
                new_body.extend(_store_stmts(self.carried))
                new_body.append(_mark_break_stmt())
                new_body.append(stmt)
            else:
                new_body.append(self.visit(stmt))
        return new_body

    def visit_If(self, node: ast.If) -> ast.If:
        node.body = self._instrument_body(node.body)
        node.orelse = self._instrument_body(node.orelse)
        return node

    def instrument_loop(self, loop: ast.For) -> ast.For:
        loop.body = self._instrument_body(loop.body)
        return loop


def _stored_names(stmt: ast.stmt) -> set[str]:
    """All simple names (possibly) bound anywhere within a statement.

    Covers plain/augmented/annotated assignment, tuple unpacking, and
    conditional writes nested inside ``if`` branches — any Store
    context Name in the subtree counts.
    """
    return {
        node.id
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }


def _analyze(fn: Callable) -> AnalyzedSignal:
    sig = parse_signal(fn)
    info = analyze_parsed(sig)
    kernel = classify_kernel(sig, info)
    if not info.has_dependency:
        return AnalyzedSignal(original=fn, info=info, kernel=kernel)
    return replace(_transform(fn, sig, info), kernel=kernel)


_analyze_once = lru_cache(maxsize=256)(_analyze)


def instrument_signal(fn: Callable) -> AnalyzedSignal:
    """Run both analyzer passes and compile the instrumented UDF.

    Memoized per function object, like the slot and push
    classifications: an engine is built per run (per ``/query``), and
    source retrieval, two analyzer passes, the kernel classification
    and a compile cost about what a whole serve-sized run does.  What
    is shared is the compiled parts — the instrumented function, the
    :class:`KernelSpec`, the dependency info — and it is never handed
    out: every call returns its own :class:`AnalyzedSignal` shell over
    them, so a caller that rebinds a field of its copy reaches no one
    else's.  Closures are analyzed fresh each time and never enter the
    cache, which would otherwise pin whatever they captured.
    """
    if not isinstance(fn, types.FunctionType) or fn.__closure__:
        return _analyze(fn)
    return replace(_analyze_once(fn))


def _transform(fn: Callable, sig: SignalAst, info: DependencyInfo) -> AnalyzedSignal:
    carried = info.carried_vars
    func = sig.func
    loop = sig.loop
    assert loop is not None

    # Each carried variable must be bound on *every* path into the
    # neighbor loop (conditional initialization is fine as long as all
    # branches assign) — checked by definite-assignment dataflow at the
    # loop header.  The restore is inserted after the *last* pre-loop
    # statement that can write the variable, so no later write clobbers
    # the restored dependency state and every later read (snapshot
    # idioms like ``start = cnt``) observes it.
    pre_loop = func.body[: sig.loop_index]
    cfg = build_cfg(func)
    rd = ReachingDefinitions(cfg, sig.params)
    header = cfg.header_of(loop)
    restore_after = {}
    for index, stmt in enumerate(pre_loop):
        for name in _stored_names(stmt):
            if name in carried:
                restore_after[name] = index
    for name in carried:
        if not definitely_assigned_at(cfg, rd, header, name):
            raise InstrumentationError(
                f"carried variable {name!r} must be initialized on every "
                f"path before the neighbor loop at {sig.location(loop)} "
                "(add an initialization or an else branch)"
            )
        if name not in restore_after:  # pragma: no cover - definite
            # assignment above implies a pre-loop write exists
            raise InstrumentationError(
                f"carried variable {name!r} has no pre-loop initialization"
            )

    new_func = ast.FunctionDef(
        name=func.name + "__dep",
        args=ast.arguments(
            posonlyargs=[],
            args=[*func.args.args, ast.arg(arg=DEP_PARAM)],
            vararg=None,
            kwonlyargs=[],
            kw_defaults=[],
            kwarg=None,
            defaults=[],
        ),
        body=[],
        decorator_list=[],
        returns=None,
    )

    body: list[ast.stmt] = [_skip_prologue()]
    for index, stmt in enumerate(pre_loop):
        body.append(stmt)
        for name in carried:
            if restore_after.get(name) == index:
                body.append(_restore_stmt(name))

    instrumented_loop = _BreakInstrumenter(carried).instrument_loop(loop)
    body.append(instrumented_loop)
    body.extend(_store_stmts(carried))
    body.extend(func.body[sig.loop_index + 1 :])
    new_func.body = body

    module = ast.Module(body=[new_func], type_ignores=[])
    ast.fix_missing_locations(module)
    source = ast.unparse(module)

    namespace = dict(sig.globals)
    try:
        code = compile(module, filename=f"<instrumented:{func.name}>", mode="exec")
        exec(code, namespace)  # noqa: S102 - compiling our own transform
    except Exception as exc:  # pragma: no cover - transform bug guard
        raise InstrumentationError(
            f"instrumented UDF failed to compile: {exc}\n{source}"
        ) from exc

    return AnalyzedSignal(
        original=fn,
        info=info,
        instrumented=namespace[new_func.name],
        instrumented_source=source,
    )

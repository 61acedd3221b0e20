"""Push classification pass: match push signals to the guarded-emit shape.

:mod:`repro.analysis.kernelspec` classifies the dense pull's neighbor
loop and :mod:`repro.analysis.slotspec` the master-side fold; this pass
covers the third UDF of a program, the sparse push's
``push_signal(u, v, s)``, which a push phase calls once per out-edge of
the frontier.  Every push signal is one shape, ``guarded_emit`` — "emit
``<expr>`` along edge ``(u, v)`` unless ``<guard>``" — in three
spellings:

* leading ``if <guard>: return None`` statements, then ``return <expr>``
  (top-down BFS);
* ``return <expr> if <cond> else None`` (MIS deactivation);
* a bare ``return <expr>``.

A classified signal runs as one flat scan of a machine's frontier
out-edges (:func:`repro.kernels.csr.guarded_emit_scan`) instead of one
call per edge.  Like a slot, a push signal is straight-line code and the
matcher is whole-body: a residual statement, a call, a free name, or an
expression outside the pure-read grammar of
:func:`repro.analysis.kernelspec._compile_expr` yields no
:class:`PushSpec` and the per-edge loop runs.

Two rules on top of the shared grammar keep the scan's values — not
just their truth — those of the loop:

* **the value is arithmetic.**  ``and``/``or`` return an operand, whose
  type then varies from edge to edge; connectives belong in the guard;
* **vertex ids are indices first.**  In the loop ``u`` and ``v`` are
  Python ints — unbounded, and *weak* when they meet a NumPy scalar —
  while the scan sees int64 arrays, so arithmetic on them is where
  Python and NumPy part ways (overflow past int64, ``/ // % **`` by
  zero or to a negative power, ``u + s.i32[v]`` staying int32).  Outside
  a subscript an id may be the whole value (``return u``), one side of
  a comparison with the other id or an int literal (``u == v``), or one
  side of the value's outermost ``+``/``-``/``*`` against a side that
  reads a state array — the one place NumPy's fixed-width rules apply
  on both paths, and where the work unit can reconcile the dtype with
  one scalar call (:func:`repro.exec.work.push_task`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.kernelspec import (
    ShapeMismatch,
    ShapeSpec,
    _compile_expr,
    _Reads,
    _straight_line_udf,
    classifier,
)

__all__ = [
    "PushSpec",
    "PushMismatch",
    "classify_push",
    "match_push",
    "GUARDED_EMIT",
]

GUARDED_EMIT = "guarded_emit"


#: the one mismatch exception, under the name this module exported
PushMismatch = ShapeMismatch


@dataclass(frozen=True)
class PushSpec(ShapeSpec):
    """A push signal's classification as a guarded emit.

    ``exprs`` holds vectorized evaluators ``fn(state, u, v)`` over the
    flattened out-edges of a machine's frontier (``u`` the source of
    each edge, ``v`` its destination): ``"value"``, what the edge
    emits, and — unless the signal emits unconditionally — ``"guard"``,
    truthy where it emits nothing.  ``sources`` keeps the unparse of
    each, as :class:`~repro.analysis.kernelspec.KernelSpec` does.
    """

    sources: Dict[str, str]
    shape: str = GUARDED_EMIT  # the one there is

    def describe(self) -> str:
        """``guarded_emit of <value> unless <guard>`` — the verify
        report's wording."""
        text = f"{self.shape} of `{self.sources['value']}`"
        if "guard" in self.sources:
            text += f" unless `{self.sources['guard']}`"
        return text


def _is_none(node: Optional[ast.expr]) -> bool:
    return node is None or (
        isinstance(node, ast.Constant) and node.value is None
    )


def _split(body: List[ast.stmt]) -> Tuple[Optional[ast.expr], ast.expr]:
    """The ``(guard, value)`` expressions of a guarded-emit body."""
    *guards, last = body or [None]
    if not (isinstance(last, ast.Return) and not _is_none(last.value)):
        raise ShapeMismatch("the body does not end with `return <expr>`")
    for stmt in guards:
        if not (
            isinstance(stmt, ast.If)
            and not stmt.orelse
            and len(stmt.body) == 1
            and isinstance(stmt.body[0], ast.Return)
            and _is_none(stmt.body[0].value)
        ):
            raise ShapeMismatch(
                f"`{ast.unparse(stmt).splitlines()[0]}` where only "
                "`if <guard>: return None` may precede the return"
            )
    value = last.value
    if isinstance(value, ast.IfExp):
        if guards or not _is_none(value.orelse):
            raise ShapeMismatch(
                "a conditional value must be the whole body, as "
                "`return <expr> if <cond> else None`"
            )
        return ast.UnaryOp(op=ast.Not(), operand=value.test), value.body
    if not guards:
        return None, value
    if len(guards) == 1:
        return guards[0].test, value
    return ast.BoolOp(op=ast.Or(), values=[g.test for g in guards]), value


def _check_ids(expr: ast.expr, ids: Tuple[str, str], is_value: bool) -> None:
    """Enforce the vertex-ids-are-indices rule of the module docstring."""

    def bare(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in ids

    def literal(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and type(node.value) is int

    def reads_array(node: ast.AST) -> bool:
        return any(isinstance(n, ast.Subscript) for n in ast.walk(node))

    def visit(node: ast.AST, parent: Optional[ast.AST]) -> None:
        if isinstance(node, ast.Subscript):
            return  # an index
        if bare(node):
            if parent is None and is_value:
                return
            if isinstance(parent, ast.Compare):
                other = (
                    parent.comparators[0] if node is parent.left
                    else parent.left
                )
                if bare(other) or literal(other):
                    return
            if (
                parent is expr
                and is_value
                and isinstance(parent, ast.BinOp)
                and isinstance(parent.op, (ast.Add, ast.Sub, ast.Mult))
                and reads_array(
                    parent.right if node is parent.left else parent.left
                )
            ):
                return
            raise ShapeMismatch(
                f"vertex id {node.id!r} is used as a number in "
                f"`{ast.unparse(parent or node)}`"
            )
        for child in ast.iter_child_nodes(node):
            visit(child, node)

    visit(expr, None)


def match_push(fn: Callable) -> PushSpec:
    """Classify ``fn`` or raise :class:`ShapeMismatch` with the reason
    (what ``repro verify`` prints for an unclassified push signal)."""
    sig, body = _straight_line_udf(fn, "push_signal(u, v, state)")
    u_name, v_name, state_name = sig.params
    guard, value = _split(body)
    roles = {"guard": guard, "value": value}
    exprs: Dict[str, Callable] = {}
    sources: Dict[str, str] = {}
    reads = _Reads()
    for role, expr in roles.items():
        if expr is None:
            continue
        exprs[role], sources[role], expr_reads = _compile_expr(
            expr, state_name, v_name, u_name,
            connectives=role == "guard",
        )
        _check_ids(expr, (u_name, v_name), is_value=role == "value")
        reads.extend(expr_reads)
    return PushSpec(sources=sources, exprs=exprs, **reads.fields())


classify_push = classifier(
    match_push,
    """The push signal's :class:`PushSpec`, or ``None`` when it is no
    guarded emit (memoized; see
    :func:`~repro.analysis.kernelspec.classifier`).""",
)

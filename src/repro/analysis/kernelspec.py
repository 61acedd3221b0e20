"""Kernel classification pass: match analyzed UDFs to vectorizable shapes.

The analyzer (PR 1) already proves *what* a signal UDF does with its
neighbor loop — whether it breaks, which variables it carries.  This
pass goes one step further and asks whether the UDF is an instance of a
shape the framework can execute as a **batched NumPy CSR kernel**
instead of interpreting it once per vertex (GPOP-style partition-wise
batching meets Palgol-style UDF compilation):

* ``first_match_break`` — scan until the first neighbor satisfying a
  pure state predicate, emit once, break (bottom-up BFS, MIS);
* ``count_to_k_break`` — count neighbors satisfying a predicate and
  break when the running count saturates at a threshold (K-core);
* ``full_scan_sum`` — fold every neighbor term into a running sum and
  emit the delta (PageRank);
* ``full_scan_min`` — fold the minimum of a neighbor key and emit it
  when it improves (label-propagation CC).

Classification is *best effort and conservative*: any statement,
expression, or side effect outside the recognized grammar simply
yields no :class:`KernelSpec`, and the engines fall back to the
per-vertex interpreter.  A spec therefore never changes semantics —
the kernels reproduce the interpreter's results, counters, and
byte accounting bit for bit (asserted by the equivalence suite).

Expressions inside a shape (predicates, emitted values, fold terms,
thresholds) are restricted to pure reads: state arrays indexed by the
loop variable or the destination vertex (``s.frontier[u]``,
``s.color[v]``), state scalars (``s.k``), constants, arithmetic,
comparisons, and boolean connectives.  They are recompiled into
vectorized evaluators over NumPy index arrays (``and``/``or``/``not``
become ``&``/``|``/``~``).  The bitwise forms agree with the
connectives on booleans only, so an operand of a connective must be a
comparison, another connective, or a state array or scalar that is
``bool`` at run time (:func:`layout_matches` checks; a miss means the
interpreter); a chained comparison (``a < b < c``), which NumPy cannot
evaluate elementwise, is outside the grammar.  Signal kernels, slot
scatters (:mod:`repro.analysis.slotspec`) and the push scan
(:mod:`repro.analysis.pushspec`) all compile through this one place.
"""

from __future__ import annotations

import ast
import copy
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.ast_analysis import DependencyInfo, SignalAst, parse_signal
from repro.analysis.purity import signal_effects
from repro.errors import AnalysisError

__all__ = [
    "KernelSpec",
    "classify_kernel",
    "layout_matches",
    "FIRST_MATCH_BREAK",
    "COUNT_TO_K_BREAK",
    "FULL_SCAN_SUM",
    "FULL_SCAN_MIN",
]

FIRST_MATCH_BREAK = "first_match_break"
COUNT_TO_K_BREAK = "count_to_k_break"
FULL_SCAN_SUM = "full_scan_sum"
FULL_SCAN_MIN = "full_scan_min"


class _NoMatch(Exception):
    """Internal control flow: the UDF is not an instance of this shape."""


@dataclass
class KernelSpec:
    """A signal UDF's compiled-to-kernel classification.

    ``exprs`` maps expression roles to vectorized evaluators with the
    uniform signature ``fn(state, u, v) -> ndarray | scalar`` where
    ``u`` is the flat array of neighbor ids under evaluation and ``v``
    the (broadcast) array of destination vertices.  Roles by kind:

    * ``first_match_break`` — ``predicate``, ``emit``;
    * ``count_to_k_break`` — ``predicate``, ``threshold``, ``init``;
    * ``full_scan_sum`` — ``term``, ``init``;
    * ``full_scan_min`` — ``term`` (the neighbor key), ``init``.

    ``sources`` holds the unparse of each compiled expression so users
    can inspect what the classifier extracted, mirroring
    ``AnalyzedSignal.instrumented_source``.  ``bool_arrays`` and
    ``bool_scalars`` name the reads that are operands of
    ``and``/``or``/``not``.
    """

    kind: str
    arrays: Tuple[str, ...]
    scalars: Tuple[str, ...]
    carried_vars: Tuple[str, ...]
    sources: Dict[str, str]
    exprs: Dict[str, Callable] = field(repr=False, default_factory=dict)
    bool_arrays: Tuple[str, ...] = ()
    bool_scalars: Tuple[str, ...] = ()

    def compatible(self, state) -> bool:
        """Can this spec run against ``state``'s current field layout?

        Checked once per pull before dispatching batches (a field
        rebound to something else silently falls back to the
        interpreter).
        """
        return layout_matches(
            state, self.arrays, self.scalars,
            self.bool_arrays, self.bool_scalars,
        )


def layout_matches(
    state, arrays, scalars, bool_arrays=(), bool_scalars=()
) -> bool:
    """Does ``state`` hold ``arrays`` as 1-D per-vertex ndarrays and
    ``scalars`` as non-arrays — the layout compiled expressions (signal
    kernels, slot scatters and the push scan alike) index into — with
    ``bool_arrays`` and ``bool_scalars``, the subsets read under a
    connective (compiled to a bitwise operator), boolean?"""
    for name in arrays:
        if name not in state:
            return False
        value = getattr(state, name)
        if not isinstance(value, np.ndarray):
            return False
        if value.ndim != 1 or value.shape[0] != state.num_vertices:
            return False
    for name in scalars:
        if name not in state:
            return False
        value = getattr(state, name)
        if isinstance(value, np.ndarray) and value.ndim != 0:
            return False
    return all(
        getattr(state, name).dtype == bool for name in bool_arrays
    ) and all(
        isinstance(getattr(state, name), (bool, np.bool_))
        for name in bool_scalars
    )


# -- expression compilation ------------------------------------------------

_ALLOWED_BINOPS = (
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
)
_ALLOWED_CMPOPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


@dataclass
class _Reads:
    """The state fields compiled expressions read, by how they are
    read: every array and scalar, and the subsets that are operands of
    ``and``/``or``/``not`` — the spec fields :func:`layout_matches`
    checks."""

    arrays: List[str] = field(default_factory=list)
    scalars: List[str] = field(default_factory=list)
    bool_arrays: List[str] = field(default_factory=list)
    bool_scalars: List[str] = field(default_factory=list)

    def extend(self, other: "_Reads") -> None:
        for name, names in vars(other).items():
            getattr(self, name).extend(names)

    def fields(self) -> Dict[str, Tuple[str, ...]]:
        """Distinct names in first-read order, as spec keyword fields."""
        return {
            name: tuple(dict.fromkeys(names))
            for name, names in vars(self).items()
        }


def _is_connective(node: ast.expr) -> bool:
    return isinstance(node, ast.BoolOp) or (
        isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
    )


class _ExprRewriter:
    """Rewrite a UDF expression into its vectorized counterpart.

    Collects the state arrays/scalars it reads along the way and
    rejects (via :class:`_NoMatch`) anything outside the pure-read
    expression grammar documented in the module docstring.
    """

    def __init__(
        self,
        state_name: str,
        v_name: str,
        u_name: Optional[str],
        connectives: bool = True,
    ) -> None:
        self.state_name = state_name
        self.v_name = v_name
        self.u_name = u_name
        self.connectives = connectives
        self.reads = _Reads()

    def rewrite(self, node: ast.expr) -> ast.expr:
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float, bool)):
                raise _NoMatch("non-numeric constant")
            return ast.Constant(value=node.value)
        if isinstance(node, ast.Name):
            if node.id == self.u_name:
                return ast.Name(id="__u", ctx=ast.Load())
            if node.id == self.v_name:
                return ast.Name(id="__v", ctx=ast.Load())
            raise _NoMatch(f"free variable {node.id!r}")
        if isinstance(node, ast.Attribute):
            return self._state_attr(node, self.reads.scalars)
        if isinstance(node, ast.Subscript):
            if not isinstance(node.value, ast.Attribute):
                raise _NoMatch("subscript of non-state value")
            target = self._state_attr(node.value, self.reads.arrays)
            index = node.slice
            if not isinstance(index, ast.Name):
                raise _NoMatch("array index must be the loop or vertex var")
            return ast.Subscript(
                value=target, slice=self.rewrite(index), ctx=ast.Load()
            )
        if _is_connective(node) and not self.connectives:
            raise _NoMatch("boolean connective in a value")
        if isinstance(node, ast.BoolOp):
            op = ast.BitAnd() if isinstance(node.op, ast.And) else ast.BitOr()
            out = self._operand(node.values[0])
            for value in node.values[1:]:
                out = ast.BinOp(left=out, op=op, right=self._operand(value))
            return out
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                if isinstance(node.operand, ast.Attribute):
                    # a lone scalar takes Python's own `not`, whatever
                    # its type (`~True` is -2)
                    return ast.UnaryOp(
                        op=ast.Not(), operand=self.rewrite(node.operand)
                    )
                return ast.UnaryOp(
                    op=ast.Invert(), operand=self._operand(node.operand)
                )
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return ast.UnaryOp(
                    op=copy.copy(node.op), operand=self.rewrite(node.operand)
                )
            raise _NoMatch("unsupported unary operator")
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, _ALLOWED_BINOPS):
                raise _NoMatch("unsupported binary operator")
            return ast.BinOp(
                left=self.rewrite(node.left),
                op=copy.copy(node.op),
                right=self.rewrite(node.right),
            )
        if isinstance(node, ast.Compare):
            if len(node.ops) > 1:
                # NumPy cannot evaluate `a < b < c` elementwise
                raise _NoMatch("chained comparison")
            if not isinstance(node.ops[0], _ALLOWED_CMPOPS):
                raise _NoMatch("unsupported comparison")
            return ast.Compare(
                left=self.rewrite(node.left),
                ops=[copy.copy(node.ops[0])],
                comparators=[self.rewrite(node.comparators[0])],
            )
        raise _NoMatch(f"unsupported expression node {type(node).__name__}")

    def _operand(self, node: ast.expr) -> ast.expr:
        """One operand of ``and``/``or``/``not``, which compile to
        ``&``/``|``/``~`` and equal them on booleans only: a comparison,
        another connective, or a state read — recorded as one that must
        be ``bool`` at run time."""
        if isinstance(node, ast.Subscript) and isinstance(
            node.value, ast.Attribute
        ):
            self.reads.bool_arrays.append(node.value.attr)
        elif isinstance(node, ast.Attribute):
            self.reads.bool_scalars.append(node.attr)
        elif not (isinstance(node, ast.Compare) or _is_connective(node)):
            raise _NoMatch(
                f"`{ast.unparse(node)}` under and/or/not is a number, "
                "not a truth value"
            )
        return self.rewrite(node)

    def _state_attr(self, node: ast.Attribute, reads: List[str]) -> ast.expr:
        if not (
            isinstance(node.value, ast.Name)
            and node.value.id == self.state_name
        ):
            raise _NoMatch("attribute access on non-state object")
        reads.append(node.attr)
        return ast.Attribute(
            value=ast.Name(id="__state", ctx=ast.Load()),
            attr=node.attr,
            ctx=ast.Load(),
        )


def _compile_expr(
    expr: ast.expr,
    state_name: str,
    v_name: str,
    u_name: Optional[str],
    connectives: bool = True,
) -> Tuple[Callable, str, _Reads]:
    """Compile a UDF expression into ``fn(state, u, v)``.

    ``u_name=None`` forbids the loop variable (thresholds and initial
    values are evaluated outside the neighbor loop) and
    ``connectives=False`` forbids ``and``/``or``/``not`` (a value, where
    they would return an operand, not a truth).  Returns the evaluator,
    its source and the state it reads.
    """
    rewriter = _ExprRewriter(state_name, v_name, u_name, connectives)
    body = rewriter.rewrite(expr)
    func = ast.FunctionDef(
        name="__kernel_expr",
        args=ast.arguments(
            posonlyargs=[],
            args=[ast.arg(arg="__state"), ast.arg(arg="__u"), ast.arg(arg="__v")],
            vararg=None,
            kwonlyargs=[],
            kw_defaults=[],
            kwarg=None,
            defaults=[],
        ),
        body=[ast.Return(value=body)],
        decorator_list=[],
        returns=None,
    )
    module = ast.Module(body=[func], type_ignores=[])
    ast.fix_missing_locations(module)
    namespace: Dict[str, object] = {}
    exec(  # noqa: S102 - compiling our own restricted rewrite
        compile(module, filename="<kernel-expr>", mode="exec"), namespace
    )
    return namespace["__kernel_expr"], ast.unparse(body), rewriter.reads


# -- shape matching --------------------------------------------------------


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _straight_line_udf(
    fn: Callable, signature: str
) -> Tuple[SignalAst, List[ast.stmt]]:
    """Parse a three-parameter straight-line UDF — a slot or a push
    signal, named by ``signature`` in the reason — into its AST and its
    body without the docstring.  Only a plain undecorated function with
    no closure, defaults or variadics has a body the whole-body matchers
    can read; anything else raises :class:`_NoMatch`."""
    if not isinstance(fn, types.FunctionType):
        raise _NoMatch("not a plain Python function")
    if fn.__closure__:
        # a captured variable is a free name, outside the grammar
        raise _NoMatch(f"closes over {', '.join(fn.__code__.co_freevars)}")
    try:
        sig = parse_signal(fn)
    except AnalysisError as exc:
        raise _NoMatch(str(exc)) from None
    args = sig.func.args
    if (
        len(sig.params) != 3
        or args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg
        or args.defaults
        or sig.func.decorator_list
    ):
        raise _NoMatch(f"not a plain undecorated {signature}")
    return sig, [stmt for stmt in sig.func.body if not _is_docstring(stmt)]


def _single_target(stmt: ast.stmt) -> Optional[str]:
    """Name bound by a simple single-target assignment, if any."""
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        return stmt.targets[0].id
    return None


def _emit_arg(stmt: ast.stmt, emit_name: str) -> ast.expr:
    """Argument of an ``emit(<expr>)`` statement, or raise."""
    if (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == emit_name
        and len(stmt.value.args) == 1
        and not stmt.value.keywords
    ):
        return stmt.value.args[0]
    raise _NoMatch("expected a single emit(<expr>) call")


def _plain_if(stmt: ast.stmt) -> ast.If:
    if isinstance(stmt, ast.If) and not stmt.orelse:
        return stmt
    raise _NoMatch("expected an if without else")


def _same_expr(a: ast.expr, b: ast.expr) -> bool:
    return ast.dump(a) == ast.dump(b)


@dataclass
class _Shape:
    """Parsed pieces of a candidate UDF, shared by the matchers."""

    sig: SignalAst
    info: DependencyInfo
    v_name: str
    state_name: str
    emit_name: str
    u_name: str
    pre: List[ast.stmt]
    body: List[ast.stmt]
    post: List[ast.stmt]


def _build_spec(kind: str, shape: _Shape, roles: Dict[str, Tuple[ast.expr, bool]]) -> KernelSpec:
    """Compile every role expression and assemble the spec.

    ``roles`` maps role name to ``(expr, allow_loop_var)``.
    """
    exprs: Dict[str, Callable] = {}
    sources: Dict[str, str] = {}
    reads = _Reads()
    for role, (expr, allow_u) in roles.items():
        exprs[role], sources[role], expr_reads = _compile_expr(
            expr,
            shape.state_name,
            shape.v_name,
            shape.u_name if allow_u else None,
        )
        reads.extend(expr_reads)
    return KernelSpec(
        kind=kind,
        carried_vars=shape.info.carried_vars,
        sources=sources,
        exprs=exprs,
        **reads.fields(),
    )


def _match_first_match(shape: _Shape) -> KernelSpec:
    """``for u in nbrs: if pred(u, v): emit(value); break``"""
    if shape.pre or shape.post or shape.info.carried_vars:
        raise _NoMatch("first-match shape has no pre/post statements")
    if len(shape.body) != 1:
        raise _NoMatch("loop body must be a single if")
    iff = _plain_if(shape.body[0])
    if len(iff.body) != 2 or not isinstance(iff.body[1], ast.Break):
        raise _NoMatch("if body must be emit-then-break")
    emit_expr = _emit_arg(iff.body[0], shape.emit_name)
    return _build_spec(
        FIRST_MATCH_BREAK,
        shape,
        {"predicate": (iff.test, True), "emit": (emit_expr, True)},
    )


def _match_count_to_k(shape: _Shape) -> KernelSpec:
    """Running count with saturation break (K-core's Figure 3b shape)."""
    if len(shape.pre) != 2 or len(shape.post) != 1 or len(shape.body) != 1:
        raise _NoMatch("count shape is init/snapshot + loop + emit-delta")
    cnt = _single_target(shape.pre[0])
    start = _single_target(shape.pre[1])
    if cnt is None or start is None or cnt == start:
        raise _NoMatch("expected counter and snapshot assignments")
    snapshot = shape.pre[1].value
    if not (isinstance(snapshot, ast.Name) and snapshot.id == cnt):
        raise _NoMatch("snapshot must copy the counter")
    if shape.info.carried_vars != (cnt,):
        raise _NoMatch("only the counter may be carried")

    iff = _plain_if(shape.body[0])
    if len(iff.body) != 2:
        raise _NoMatch("predicate body must be increment + saturation test")
    inc, sat = iff.body
    if not (
        isinstance(inc, ast.AugAssign)
        and isinstance(inc.op, ast.Add)
        and isinstance(inc.target, ast.Name)
        and inc.target.id == cnt
        and isinstance(inc.value, ast.Constant)
        and inc.value.value == 1
    ):
        raise _NoMatch("increment must be cnt += 1")
    sat_if = _plain_if(sat)
    if not (
        len(sat_if.body) == 1
        and isinstance(sat_if.body[0], ast.Break)
        and isinstance(sat_if.test, ast.Compare)
        and len(sat_if.test.ops) == 1
        and isinstance(sat_if.test.ops[0], ast.GtE)
        and isinstance(sat_if.test.left, ast.Name)
        and sat_if.test.left.id == cnt
    ):
        raise _NoMatch("saturation must be `if cnt >= k: break`")
    threshold = sat_if.test.comparators[0]

    post_if = _plain_if(shape.post[0])
    if not (
        isinstance(post_if.test, ast.Compare)
        and len(post_if.test.ops) == 1
        and isinstance(post_if.test.ops[0], ast.Gt)
        and isinstance(post_if.test.left, ast.Name)
        and post_if.test.left.id == cnt
        and isinstance(post_if.test.comparators[0], ast.Name)
        and post_if.test.comparators[0].id == start
        and len(post_if.body) == 1
    ):
        raise _NoMatch("tail must be `if cnt > start: emit(cnt - start)`")
    delta = _emit_arg(post_if.body[0], shape.emit_name)
    if not (
        isinstance(delta, ast.BinOp)
        and isinstance(delta.op, ast.Sub)
        and isinstance(delta.left, ast.Name)
        and delta.left.id == cnt
        and isinstance(delta.right, ast.Name)
        and delta.right.id == start
    ):
        raise _NoMatch("emitted value must be the count delta")
    return _build_spec(
        COUNT_TO_K_BREAK,
        shape,
        {
            "predicate": (iff.test, True),
            "threshold": (threshold, False),
            "init": (shape.pre[0].value, False),
        },
    )


def _match_full_scan_sum(shape: _Shape) -> KernelSpec:
    """Unconditional sum fold with delta emit (PageRank's shape)."""
    if len(shape.pre) != 2 or len(shape.post) != 1 or len(shape.body) != 1:
        raise _NoMatch("sum shape is init/snapshot + fold + emit-delta")
    total = _single_target(shape.pre[0])
    start = _single_target(shape.pre[1])
    if total is None or start is None or total == start:
        raise _NoMatch("expected accumulator and snapshot assignments")
    snapshot = shape.pre[1].value
    if not (isinstance(snapshot, ast.Name) and snapshot.id == total):
        raise _NoMatch("snapshot must copy the accumulator")
    if shape.info.carried_vars != (total,):
        raise _NoMatch("only the accumulator may be carried")
    fold = shape.body[0]
    if not (
        isinstance(fold, ast.AugAssign)
        and isinstance(fold.op, ast.Add)
        and isinstance(fold.target, ast.Name)
        and fold.target.id == total
    ):
        raise _NoMatch("fold must be `total += term`")
    post_if = _plain_if(shape.post[0])
    if not (
        isinstance(post_if.test, ast.Compare)
        and len(post_if.test.ops) == 1
        and isinstance(post_if.test.ops[0], ast.Gt)
        and isinstance(post_if.test.left, ast.Name)
        and post_if.test.left.id == total
        and isinstance(post_if.test.comparators[0], ast.Name)
        and post_if.test.comparators[0].id == start
        and len(post_if.body) == 1
    ):
        raise _NoMatch("tail must be `if total > start: emit(total - start)`")
    delta = _emit_arg(post_if.body[0], shape.emit_name)
    if not (
        isinstance(delta, ast.BinOp)
        and isinstance(delta.op, ast.Sub)
        and isinstance(delta.left, ast.Name)
        and delta.left.id == total
        and isinstance(delta.right, ast.Name)
        and delta.right.id == start
    ):
        raise _NoMatch("emitted value must be the sum delta")
    return _build_spec(
        FULL_SCAN_SUM,
        shape,
        {"term": (fold.value, True), "init": (shape.pre[0].value, False)},
    )


def _match_full_scan_min(shape: _Shape) -> KernelSpec:
    """Minimum fold with improvement emit (label-propagation CC)."""
    if len(shape.pre) != 1 or len(shape.post) != 1 or len(shape.body) != 1:
        raise _NoMatch("min shape is init + fold + emit-if-improved")
    best = _single_target(shape.pre[0])
    if best is None:
        raise _NoMatch("expected a fold-variable assignment")
    if shape.info.carried_vars != (best,):
        raise _NoMatch("only the fold variable may be carried")
    init_expr = shape.pre[0].value
    iff = _plain_if(shape.body[0])
    if not (
        isinstance(iff.test, ast.Compare)
        and len(iff.test.ops) == 1
        and isinstance(iff.test.ops[0], ast.Lt)
        and isinstance(iff.test.comparators[0], ast.Name)
        and iff.test.comparators[0].id == best
        and len(iff.body) == 1
    ):
        raise _NoMatch("fold must be `if key < best: best = key`")
    assign = iff.body[0]
    if not (
        _single_target(assign) == best
        and _same_expr(assign.value, iff.test.left)
    ):
        raise _NoMatch("fold must assign the compared key")
    post_if = _plain_if(shape.post[0])
    if not (
        isinstance(post_if.test, ast.Compare)
        and len(post_if.test.ops) == 1
        and isinstance(post_if.test.ops[0], ast.Lt)
        and isinstance(post_if.test.left, ast.Name)
        and post_if.test.left.id == best
        and _same_expr(post_if.test.comparators[0], init_expr)
        and len(post_if.body) == 1
    ):
        raise _NoMatch("tail must be `if best < init: emit(best)`")
    emitted = _emit_arg(post_if.body[0], shape.emit_name)
    if not (isinstance(emitted, ast.Name) and emitted.id == best):
        raise _NoMatch("emitted value must be the fold result")
    return _build_spec(
        FULL_SCAN_MIN,
        shape,
        {"term": (iff.test.left, True), "init": (init_expr, False)},
    )


_MATCHERS = (
    _match_first_match,
    _match_count_to_k,
    _match_full_scan_sum,
    _match_full_scan_min,
)


def classify_kernel(
    sig: SignalAst, info: DependencyInfo
) -> Optional[KernelSpec]:
    """Classify a parsed signal UDF against the known kernel shapes.

    Returns ``None`` whenever the UDF falls outside the grammar, has
    side effects (per :func:`repro.analysis.purity.signal_effects`),
    or anything at all goes wrong — classification is an optimization
    hint and must never fail an analysis that would otherwise succeed.
    """
    try:
        loop = sig.loop
        if loop is None or loop.orelse or len(sig.params) < 4:
            return None
        if not isinstance(loop.target, ast.Name):
            return None
        if signal_effects(sig):
            return None
        shape = _Shape(
            sig=sig,
            info=info,
            v_name=sig.params[0],
            state_name=sig.params[2],
            emit_name=sig.params[3],
            u_name=loop.target.id,
            pre=[
                stmt
                for stmt in sig.func.body[: sig.loop_index]
                if not _is_docstring(stmt)
            ],
            body=list(loop.body),
            post=list(sig.func.body[sig.loop_index + 1 :]),
        )
        for matcher in _MATCHERS:
            try:
                return matcher(shape)
            except _NoMatch:
                continue
        return None
    except Exception:  # pragma: no cover - defensive: never break analysis
        return None

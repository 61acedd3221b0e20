"""Slot classification pass: match slot UDFs to ordered-scatter shapes.

:mod:`repro.analysis.kernelspec` asks whether a *signal*'s neighbor
loop is a shape a batched kernel can run; this pass asks the same of
the other half of the pair.  A slot ``slot(v, value, s)`` is the
master-side fold over the updates mirrors send, and a phase applies it
once per update in merge order.  Three whole-body shapes can instead be
applied to a phase's concatenated ``(v, value)`` bins with one ordered
scatter (:mod:`repro.kernels.slots`):

* ``first_wins`` — ``if <guard on s.F[v]>: return False``, then writes
  ``s.A[v] = <expr>``, then a constant return (BFS visit, K-means
  assign, SCC reach, MIS deactivate); also the idempotent-clear
  spelling ``if s.F[v]: s.F[v] = False`` + ``return False``;
* ``min_fold`` / ``max_fold`` — ``if value < s.A[v]: s.A[v] = value;
  return True`` + ``return False`` (label propagation, SSSP relax,
  incremental depth repair);
* ``accumulate`` — ``s.A[v] += value | int(value) | float(value)`` and
  a constant return (PageRank, K-core count).

A slot is straight-line code, so the matchers are whole-body: a
residual statement, a non-constant ``return``, or an expression outside
the pure-read grammar of :func:`repro.analysis.kernelspec._compile_expr`
yields no :class:`SlotSpec` and the scalar slot loop runs — the same
"any miss means the interpreter" contract as the signal side.

Two eligibility rules carry the soundness of ``first_wins``:

* **guard folding** — one write must constant-fold the guard to
  "taken" (``s.visited[v] = True`` under ``if s.visited[v]``), so a
  second update of the same vertex in the same phase is provably
  skipped and "first occurrence per ``v``" is the whole phase.  A guard
  on a value-dependent write (sampling's ``s.select[v] = int(value)``
  under ``if s.select[v] >= 0``) does not fold;
* **index domain** — every state read and write is at ``[v]``: an
  update touches its own vertex's cells only, so updates of distinct
  vertices commute and one vectorized pass over distinct vertices
  equals the scalar loop.  ``s.depth[parent]`` (async BFS) reads a cell
  another update of the same phase may have written.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.kernelspec import (
    FULL_SCAN_MIN,
    ShapeMismatch,
    ShapeSpec,
    _compile_expr,
    _straight_line_udf,
    classifier,
)

__all__ = [
    "SlotSpec",
    "SlotMismatch",
    "classify_slot",
    "match_slot",
    "min_fold_pair",
    "MIN_FOLD_RULE",
    "FIRST_WINS",
    "MIN_FOLD",
    "MAX_FOLD",
    "ACCUMULATE",
]

FIRST_WINS = "first_wins"
MIN_FOLD = "min_fold"
MAX_FOLD = "max_fold"
ACCUMULATE = "accumulate"

#: dtypes a classified slot may write — the ones ``StateStore`` fields
#: are declared with, whose scalar store and arithmetic semantics the
#: scatters reproduce exactly (a float32 or int32 field takes the
#: scalar loop rather than a second set of promotion rules)
WRITABLE_DTYPES = (np.dtype(bool), np.dtype(np.int64), np.dtype(np.float64))


#: the one mismatch exception, under the name this module exported
SlotMismatch = ShapeMismatch


@dataclass(frozen=True)
class SlotSpec(ShapeSpec):
    """A slot UDF's classification into an ordered-scatter shape.

    ``fields`` are the state arrays the slot writes, in statement
    order.  ``exprs`` holds vectorized evaluators ``fn(state, value,
    v)`` over the value and vertex arrays of the updates being applied:
    for ``first_wins`` one per written field plus ``"guard"`` (truthy
    where the update is skipped; it never reads the value); the fold
    shapes write the value itself and need none.  ``casts`` records,
    for each written field whose expression reads the value, the
    conversion it reads it under (``None``, ``"int"`` or ``"float"``);
    a field written from state and constants alone has no entry, and a
    slot with no entry at all never looks at the values.  ``returns``
    is what a successful application returns — whether the vertex
    counts as changed.  The guard's ``bool_arrays`` / ``bool_scalars``
    are the reads it combines with ``not``/``and``/``or``.
    """

    shape: str
    fields: Tuple[str, ...]
    returns: bool
    casts: Dict[str, Optional[str]]

    def compatible(self, state) -> bool:
        """On top of the shared layout check, every written field must
        have a dtype in :data:`WRITABLE_DTYPES`."""
        return super().compatible(state) and all(
            getattr(state, name).dtype in WRITABLE_DTYPES
            for name in self.fields
        )

    def describe(self) -> str:
        """``shape over field, field`` — the verify report's wording."""
        return f"{self.shape} over {', '.join(self.fields)}"


@dataclass
class _Slot:
    """Parsed pieces of a candidate slot, shared by the matchers."""

    v_name: str
    value_name: str
    state_name: str
    body: List[ast.stmt]


def _state_cell(node: ast.AST, slot: _Slot) -> Optional[str]:
    """Field name when ``node`` is ``s.<field>[v]``, else None."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == slot.state_name
        and isinstance(node.slice, ast.Name)
        and node.slice.id == slot.v_name
    ):
        return node.value.attr
    return None


def _written_cell(target: ast.expr, slot: _Slot) -> str:
    name = _state_cell(target, slot)
    if name is None:
        raise ShapeMismatch(
            f"`{ast.unparse(target)}` is written; a write must target "
            f"s.<field>[{slot.v_name}]"
        )
    return name


def _constant_return(stmt: ast.stmt) -> bool:
    """Truth value of a ``return <constant>`` statement, or raise."""
    if isinstance(stmt, ast.Return):
        if stmt.value is None:
            return False
        if isinstance(stmt.value, ast.Constant):
            return bool(stmt.value.value)
    raise ShapeMismatch(
        f"`{ast.unparse(stmt)}` where a constant return was expected"
    )


class _ValueCasts(ast.NodeTransformer):
    """Strip ``int(value)`` / ``float(value)`` down to ``value``,
    recording every form the value is read under (the scatter applies
    the conversion to the whole value array before evaluating)."""

    def __init__(self, value_name: str) -> None:
        self.value_name = value_name
        self.kinds: set = set()

    def visit_Call(self, node: ast.Call) -> ast.AST:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("int", "float")
            and len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == self.value_name
        ):
            self.kinds.add(node.func.id)
            return node.args[0]
        return self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id == self.value_name:
            self.kinds.add(None)
        return node


def _compile(expr: ast.expr, slot: _Slot, allow_value: bool):
    """Compile one slot expression to ``fn(state, value, v)``.

    Returns ``(fn, reads, casts)`` where ``casts`` is empty when the
    expression does not read the value and else holds the one
    conversion it reads it under.  On top of the signal grammar: every
    subscript must be ``s.<field>[v]`` (the index-domain rule), the
    value may appear under one conversion only, and only the guard
    (``allow_value=False``) may use a connective.
    """
    for node in ast.walk(expr):
        if isinstance(node, ast.Subscript) and _state_cell(node, slot) is None:
            raise ShapeMismatch(
                f"`{ast.unparse(node)}` is not indexed by {slot.v_name!r}: "
                "another update of the phase may write that cell"
            )
    casts = _ValueCasts(slot.value_name)
    stripped = casts.visit(copy.deepcopy(expr))
    if len(casts.kinds) > 1:
        raise ShapeMismatch("the value is read under more than one conversion")
    if casts.kinds and not allow_value:
        raise ShapeMismatch("the guard reads the value")
    fn, _, reads = _compile_expr(
        stripped,
        slot.state_name,
        slot.v_name,
        slot.value_name if allow_value else None,
        connectives=not allow_value,
    )
    return fn, reads, casts.kinds


def _guard_folds(
    guard: ast.expr, constants: Dict[str, ast.Constant], slot: _Slot
) -> bool:
    """Do the slot's constant writes make ``guard`` true?

    Every ``s.<field>[v]`` the guard reads is replaced by the constant
    the slot stores there; the guard folds when nothing but constants
    is left and they evaluate truthy.
    """

    class Fold(ast.NodeTransformer):
        def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
            return constants.get(_state_cell(node, slot), node)

    folded = ast.Expression(body=Fold().visit(copy.deepcopy(guard)))
    if any(
        isinstance(node, (ast.Name, ast.Attribute, ast.Subscript))
        for node in ast.walk(folded)
    ):
        return False
    ast.fix_missing_locations(folded)
    try:
        # constants under operators of the (already validated) grammar
        return bool(
            eval(  # noqa: S307 - nothing but literals is left to evaluate
                compile(folded, "<slot-guard>", "eval"), {"__builtins__": {}}
            )
        )
    except ArithmeticError:
        return False


def _match_first_wins(slot: _Slot) -> SlotSpec:
    """``if <guard>: return False`` + writes + constant return."""
    body = slot.body
    head = body[0] if body else None
    if not (isinstance(head, ast.If) and not head.orelse):
        raise ShapeMismatch("the body does not open with an `if` without else")
    if (
        len(body) >= 3
        and len(head.body) == 1
        and isinstance(head.body[0], ast.Return)
    ):
        if _constant_return(head.body[0]):
            raise ShapeMismatch("the guarded early return must be False")
        guard, writes = head.test, body[1:-1]
        returns = _constant_return(body[-1])
    elif len(body) == 2:
        # idempotent clear: `if s.F[v]: s.F[v] = False` + `return False`
        # is the guard negated, with both paths returning the same
        guard = ast.UnaryOp(op=ast.Not(), operand=head.test)
        writes = head.body
        returns = _constant_return(body[1])
        if returns:
            raise ShapeMismatch("the skipped path must return False")
    else:
        raise ShapeMismatch(
            "expected `if <guard>: return False`, writes, a constant return"
        )

    guard_fn, reads, _ = _compile(guard, slot, False)
    exprs: Dict[str, Callable] = {"guard": guard_fn}
    fields: List[str] = []
    casts: Dict[str, Optional[str]] = {}
    constants: Dict[str, ast.Constant] = {}
    for stmt in writes:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            raise ShapeMismatch(
                f"`{ast.unparse(stmt)}` is not a plain s.<field>[v] = <expr>"
            )
        name = _written_cell(stmt.targets[0], slot)
        if name in fields:
            raise ShapeMismatch(f"s.{name}[{slot.v_name}] is written twice")
        fn, expr_reads, kinds = _compile(stmt.value, slot, True)
        stale = sorted(set(expr_reads.arrays) & set(fields))
        if stale:
            # every expression is evaluated on the pre-state, which is
            # the scalar order only while no read follows its write
            raise ShapeMismatch(f"reads {stale} after writing it")
        fields.append(name)
        exprs[name] = fn
        casts.update({name: kind for kind in kinds})
        reads.extend(expr_reads)
        if isinstance(stmt.value, ast.Constant):
            constants[name] = stmt.value
    if not _guard_folds(guard, constants, slot):
        raise ShapeMismatch(
            f"no write constant-folds the guard `{ast.unparse(guard)}` to "
            "taken, so a later update of the same vertex could still apply"
        )
    reads.arrays.extend(fields)
    return SlotSpec(
        shape=FIRST_WINS,
        fields=tuple(fields),
        returns=returns,
        casts=casts,
        exprs=exprs,
        **reads.fields(),
    )


def _match_fold(slot: _Slot) -> SlotSpec:
    """``if value < s.A[v]: s.A[v] = value; return True`` + ``return False``
    (``>`` for the max fold)."""
    body = slot.body
    if not (
        len(body) == 2
        and isinstance(body[0], ast.If)
        and not body[0].orelse
        and len(body[0].body) == 2
    ):
        raise ShapeMismatch(
            "expected `if value < s.<field>[v]:` store-and-return-True, "
            "then `return False`"
        )
    test, (store, improved) = body[0].test, body[0].body
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Lt, ast.Gt))
        and isinstance(test.left, ast.Name)
        and test.left.id == slot.value_name
    ):
        raise ShapeMismatch(
            "the test must be `value < s.<field>[v]` or `value > ...`"
        )
    name = _state_cell(test.comparators[0], slot)
    if name is None:
        raise ShapeMismatch("the value must be compared with s.<field>[v]")
    if not (
        isinstance(store, ast.Assign)
        and len(store.targets) == 1
        and _state_cell(store.targets[0], slot) == name
        and isinstance(store.value, ast.Name)
        and store.value.id == slot.value_name
    ):
        raise ShapeMismatch(
            "the compared value must be stored in the same cell"
        )
    if not _constant_return(improved) or _constant_return(body[1]):
        raise ShapeMismatch("an improvement returns True and a miss False")
    return SlotSpec(
        shape=MIN_FOLD if isinstance(test.ops[0], ast.Lt) else MAX_FOLD,
        fields=(name,),
        arrays=(name,),
        scalars=(),
        returns=True,
        casts={name: None},
    )


def _match_accumulate(slot: _Slot) -> SlotSpec:
    """``s.A[v] += value | int(value) | float(value)`` + constant return."""
    body = slot.body
    if not (len(body) == 2 and isinstance(body[0], ast.AugAssign)):
        raise ShapeMismatch(
            "expected `s.<field>[v] += value` and a constant return"
        )
    fold = body[0]
    if not isinstance(fold.op, ast.Add):
        raise ShapeMismatch(
            f"`{ast.unparse(fold)}`: only `+=` is an ordered-sum fold"
        )
    name = _written_cell(fold.target, slot)
    casts = _ValueCasts(slot.value_name)
    term = casts.visit(copy.deepcopy(fold.value))
    if not (isinstance(term, ast.Name) and len(casts.kinds) == 1):
        raise ShapeMismatch(
            "the summand must be value, int(value) or float(value)"
        )
    return SlotSpec(
        shape=ACCUMULATE,
        fields=(name,),
        arrays=(name,),
        scalars=(),
        returns=_constant_return(body[1]),
        casts={name: next(iter(casts.kinds))},
    )


_MATCHERS = (
    (FIRST_WINS, _match_first_wins),
    ("min_fold/max_fold", _match_fold),
    (ACCUMULATE, _match_accumulate),
)


def match_slot(fn: Callable) -> SlotSpec:
    """Classify ``fn`` or raise :class:`ShapeMismatch` with each
    matcher's reason (what ``repro verify`` prints for an unclassified
    slot)."""
    sig, body = _straight_line_udf(fn, "slot(v, value, state)")
    slot = _Slot(*sig.params, body=body)
    reasons = []
    for shape, matcher in _MATCHERS:
        try:
            return matcher(slot)
        except ShapeMismatch as exc:
            reasons.append(f"{shape}: {exc}")
    raise ShapeMismatch("; ".join(reasons))


classify_slot = classifier(
    match_slot,
    """The slot's :class:`SlotSpec`, or ``None`` when it falls outside
    the three shapes (memoized; see
    :func:`~repro.analysis.kernelspec.classifier`).""",
)


#: the rule :func:`min_fold_pair` decides, in ``repro explain``'s words
MIN_FOLD_RULE = ("break-free min fold: partials combine at the master "
                 "with a min-fold slot; circulated otherwise")


def min_fold_pair(analyzed, slot: Optional[Callable] = None) -> bool:
    """Does the analyzed signal need no dependency lane with ``slot``?

    A signal with no ``break`` whose only carried variable is its
    ``full_scan_min`` fold skips nothing; when ``slot`` is a
    ``min_fold`` into the field the fold starts from
    (``best = s.<field>[v]``), each machine's partial minimum combines
    at the master exactly, in any order (Definition 2.2), so the pair
    runs the BSP schedule with the same fixpoint.  Any other carry —
    a sum, an unclassified fold, a min paired with another slot —
    circulates.  With ``slot`` None only the signal's half is checked
    (what :func:`~repro.analysis.report.explain_signal` can see).
    """
    kernel = analyzed.kernel
    if (analyzed.info.has_break or kernel is None
            or kernel.kind != FULL_SCAN_MIN):
        return False
    if slot is None:
        return True
    spec = classify_slot(slot)
    return (spec is not None and spec.shape == MIN_FOLD
            and kernel.sources["init"] == f"__state.{spec.fields[0]}[__v]")

"""Abstract interpretation of signal UDFs over the CFG/dataflow IR.

:func:`summarize` runs a classic worklist fixpoint over the UDF's
basic-block CFG (:mod:`repro.analysis.cfg`) with the type lattice of
:mod:`repro.analysis.verify.domain` as the abstract state — one type
per variable, joined at control-flow merges — and derives, per
variable and per program point:

* an abstract **type** for every local (and so for every emitted
  value),
* the **fold classification** of every variable updated inside the
  neighbor loop (count / sum / min / max / overwrite / opaque), the
  order-sensitivity fact the kernel contracts turn on,
* the **read effect set**: every state field touched, split into
  per-element array reads (with their index variable) and scalars,
* every **emit site** and **break site** with its region and guard
  stack,
* the purity effects of :func:`repro.analysis.purity.signal_effects`.

Everything is derived from the AST and the dataflow fixpoint — no UDF
code runs.  The result (:class:`UdfSummary`) is the single input of
the contract certifier in :mod:`repro.analysis.verify.contracts`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.ast_analysis import DependencyInfo, SignalAst, analyze_parsed
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import ReachingDefinitions
from repro.analysis.purity import Effect, signal_effects
from repro.analysis.verify.domain import (
    BOOL,
    BOTTOM,
    FLOAT,
    INT,
    NUM,
    OBJECT,
    TOP,
    BreakSite,
    EmitSite,
    FoldKind,
    StateRead,
    fold_join,
    type_join,
)

__all__ = ["UdfSummary", "summarize"]


@dataclass
class UdfSummary:
    """Everything the abstract interpreter proved about one signal UDF."""

    sig: SignalAst
    info: DependencyInfo
    cfg: CFG
    rd: ReachingDefinitions
    var_types: Dict[str, str]
    folds: Dict[str, str]
    fold_sites: Dict[str, List[ast.AST]]
    state_reads: Tuple[StateRead, ...]
    emits: Tuple[EmitSite, ...]
    breaks: Tuple[BreakSite, ...]
    effects: List[Effect] = field(default_factory=list)

    # -- queries -------------------------------------------------------

    def fold_of(self, var: str) -> str:
        """Fold classification of ``var`` inside the neighbor loop."""
        return self.folds.get(var, FoldKind.NONE)

    def order_insensitive(self, var: str) -> bool:
        """May the neighbor sequence be reordered/resumed for ``var``?"""
        return self.fold_of(var) in FoldKind.ORDER_INSENSITIVE

    def arrays_read(self) -> Tuple[str, ...]:
        """State fields read per-element, first-read order."""
        seen = dict.fromkeys(
            r.attr for r in self.state_reads if r.kind == "array"
        )
        return tuple(seen)

    def type_of_expr(self, node: ast.expr) -> str:
        """Abstract type of an expression under the fixpoint env."""
        return _eval_type(node, self.var_types, self._special)

    def is_loop_invariant(self, node: ast.expr) -> bool:
        """Does the expression read only parameters and constants?

        Sound over-approximation: any load of a local (a name with a
        real definition anywhere in the UDF) or of the loop variable
        makes the expression potentially loop-varying.
        """
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id in self.rd.local_vars:
                    return False
                if child.id == self.info.loop_var:
                    return False
        return True

    @property
    def _special(self) -> Dict[str, str]:
        env = {}
        if len(self.sig.params) >= 3:
            env[self.sig.params[2]] = OBJECT
        return env


# -- expression typing -------------------------------------------------

_NUMERIC_BUILTINS = {
    "abs": NUM,
    "int": INT,
    "float": FLOAT,
    "bool": BOOL,
    "len": INT,
    "min": NUM,
    "max": NUM,
    "round": NUM,
    "sum": NUM,
}


def _const_type(value: object) -> str:
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    return OBJECT


def _eval_type(
    node: ast.expr, env: Dict[str, str], special: Dict[str, str]
) -> str:
    """Abstract type of an expression under ``env`` (TOP when unknown)."""
    if isinstance(node, ast.Constant):
        return _const_type(node.value)
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        return special.get(node.id, TOP)
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        # reads through the state namespace hold per-vertex numbers;
        # anything else structured is opaque
        root = node
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if isinstance(root, ast.Name) and special.get(root.id) == OBJECT:
            return NUM
        return TOP
    if isinstance(node, ast.BinOp):
        left = _eval_type(node.left, env, special)
        right = _eval_type(node.right, env, special)
        if isinstance(node.op, ast.Div):
            return FLOAT
        joined = type_join(left, right)
        if joined == BOOL:
            return INT  # True + True == 2
        return joined if joined != TOP else TOP
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.Not):
            return BOOL
        return _eval_type(node.operand, env, special)
    if isinstance(node, (ast.Compare,)):
        return BOOL
    if isinstance(node, ast.BoolOp):
        out = BOTTOM
        for value in node.values:
            out = type_join(out, _eval_type(value, env, special))
        return out
    if isinstance(node, ast.IfExp):
        return type_join(
            _eval_type(node.body, env, special),
            _eval_type(node.orelse, env, special),
        )
    if isinstance(node, ast.NamedExpr):
        return _eval_type(node.value, env, special)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return _NUMERIC_BUILTINS.get(node.func.id, TOP)
        return TOP
    return TOP


# -- type fixpoint over the CFG ----------------------------------------


def _walruses(node: ast.AST) -> List[ast.NamedExpr]:
    return [n for n in ast.walk(node) if isinstance(n, ast.NamedExpr)]


class _TypeInterp:
    """Worklist fixpoint: one abstract env (var -> type) per block."""

    def __init__(self, sig: SignalAst, cfg: CFG, rd: ReachingDefinitions):
        self.sig = sig
        self.cfg = cfg
        self.rd = rd
        self.special: Dict[str, str] = {}
        self.boundary: Dict[str, str] = {}
        params = sig.params
        if params:
            self.boundary[params[0]] = INT  # destination vertex id
        for p in params[1:]:
            self.boundary[p] = OBJECT  # nbrs view, state, emit callback
        if len(params) >= 3:
            self.special[params[2]] = OBJECT

    def run(self) -> Dict[str, str]:
        cfg = self.cfg
        in_env: Dict[int, Dict[str, str]] = {b: {} for b in cfg.blocks}
        out_env: Dict[int, Dict[str, str]] = {b: {} for b in cfg.blocks}
        in_env[cfg.entry] = dict(self.boundary)
        worklist = list(cfg.blocks)
        while worklist:
            b = worklist.pop(0)
            preds = cfg.blocks[b].preds
            if preds:
                merged: Dict[str, str] = {}
                for p in preds:
                    for var, t in out_env[p].items():
                        merged[var] = type_join(merged.get(var, BOTTOM), t)
            else:
                merged = dict(self.boundary) if b == cfg.entry else {}
            new_out = self._transfer(b, dict(merged))
            if merged != in_env[b] or new_out != out_env[b]:
                in_env[b] = merged
                out_env[b] = new_out
                for s in cfg.blocks[b].succs:
                    if s not in worklist:
                        worklist.append(s)
        # global join: the type a variable can have anywhere
        final: Dict[str, str] = {}
        for env in out_env.values():
            for var, t in env.items():
                final[var] = type_join(final.get(var, BOTTOM), t)
        return final

    def _transfer(self, block_id: int, env: Dict[str, str]) -> Dict[str, str]:
        for instr in self.cfg.blocks[block_id].instrs:
            node = instr.node
            if instr.kind == "for-header":
                for nw in _walruses(node.iter):
                    self._bind_walrus(env, nw)
                if isinstance(node.target, ast.Name):
                    env[node.target.id] = self._loop_target_type(node)
                else:
                    for n in ast.walk(node.target):
                        if isinstance(n, ast.Name):
                            env[n.id] = TOP
                continue
            if instr.kind == "test":
                for nw in _walruses(node):
                    self._bind_walrus(env, nw)
                continue
            if instr.kind == "with-enter":
                for item in node.items:
                    for nw in _walruses(item.context_expr):
                        self._bind_walrus(env, nw)
                    if item.optional_vars is not None:
                        for n in ast.walk(item.optional_vars):
                            if isinstance(n, ast.Name):
                                env[n.id] = TOP
                continue
            for nw in _walruses(node):
                self._bind_walrus(env, nw)
            if isinstance(node, ast.Assign):
                t = self._eval(node.value, env)
                for target in node.targets:
                    self._bind_target(env, target, t)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind_target(env, node.target, self._eval(node.value, env))
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                current = env.get(node.target.id, BOTTOM)
                rhs = self._eval(node.value, env)
                if isinstance(node.op, ast.Div):
                    updated = FLOAT
                else:
                    updated = type_join(current, rhs)
                    if updated == BOOL:
                        updated = INT
                env[node.target.id] = updated
        return env

    def _loop_target_type(self, node: ast.For) -> str:
        # the neighbor loop binds neighbor ids (ints); other iterables
        # are opaque
        if (
            isinstance(node.iter, ast.Name)
            and len(self.sig.params) > 1
            and node.iter.id == self.sig.params[1]
        ):
            return INT
        return TOP

    def _bind_walrus(self, env: Dict[str, str], nw: ast.NamedExpr) -> None:
        if isinstance(nw.target, ast.Name):
            env[nw.target.id] = self._eval(nw.value, env)

    def _bind_target(
        self, env: Dict[str, str], target: ast.expr, t: str
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = t
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(env, elt, TOP)
        elif isinstance(target, ast.Starred):
            self._bind_target(env, target.value, TOP)
        # attribute/subscript targets bind no local name

    def _eval(self, node: ast.expr, env: Dict[str, str]) -> str:
        return _eval_type(node, env, self.special)


# -- fold classification -----------------------------------------------


def _negated(test: ast.expr) -> ast.expr:
    """Path condition of an ``else`` branch: ``not test``.

    The synthesized node keeps the test's source location so any
    verdict citing the guard still points at real code.  Downstream
    guard matchers (the guarded-extremum grammar here, the delta-emit
    and saturation obligations in :mod:`.contracts`) pattern-match bare
    comparisons only, so a negated guard never satisfies a
    positive-polarity obligation — else-branch folds conservatively
    classify as OVERWRITE and else-branch emits/breaks fail the guard
    obligations instead of passing them with inverted semantics.
    """
    return ast.copy_location(
        ast.UnaryOp(op=ast.Not(), operand=test), test
    )


def _loads(node: ast.expr) -> Set[str]:
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _classify_aug(stmt: ast.AugAssign) -> str:
    name = stmt.target.id
    if name in _loads(stmt.value):
        return FoldKind.OPAQUE  # self-referential increment
    if isinstance(stmt.op, ast.Add):
        if isinstance(stmt.value, ast.Constant) and stmt.value.value == 1:
            return FoldKind.COUNT
        return FoldKind.SUM
    if isinstance(stmt.op, ast.Sub):
        return FoldKind.SUM  # subtracting terms commutes like adding
    return FoldKind.OPAQUE


def _classify_assign(
    name: str, value: ast.expr, guards: Tuple[ast.expr, ...]
) -> str:
    # expanded accumulations: x = x + e / x = e + x  (and x - e)
    if isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub)):
        left, right = value.left, value.right
        if isinstance(left, ast.Name) and left.id == name:
            if name not in _loads(right):
                return FoldKind.SUM
        if (
            isinstance(value.op, ast.Add)
            and isinstance(right, ast.Name)
            and right.id == name
            and name not in _loads(left)
        ):
            return FoldKind.SUM
    # x = min(x, e) / min(e, x); same for max
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("min", "max")
        and len(value.args) >= 2
        and any(
            isinstance(a, ast.Name) and a.id == name for a in value.args
        )
    ):
        return FoldKind.MIN if value.func.id == "min" else FoldKind.MAX
    # guarded extremum: if key < x: x = key  (and the three mirrored forms)
    if guards:
        guard = guards[-1]
        if (
            isinstance(guard, ast.Compare)
            and len(guard.ops) == 1
            and isinstance(guard.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
        ):
            op = guard.ops[0]
            left, right = guard.left, guard.comparators[0]
            key: Optional[ast.expr] = None
            smaller_wins = False
            if isinstance(right, ast.Name) and right.id == name:
                key = left  # `key OP x`
                smaller_wins = isinstance(op, (ast.Lt, ast.LtE))
            elif isinstance(left, ast.Name) and left.id == name:
                key = right  # `x OP key`
                smaller_wins = isinstance(op, (ast.Gt, ast.GtE))
            if (
                key is not None
                and ast.dump(value) == ast.dump(key)
                and name not in _loads(key)
            ):
                return FoldKind.MIN if smaller_wins else FoldKind.MAX
    return FoldKind.OVERWRITE


class _LoopScanner:
    """AST walk of the three UDF regions with a guard stack.

    Produces the fold classifications (loop region only), the emit and
    break sites (every region), each tagged with the enclosing ``if``
    tests — the *path condition*: body branches push the test itself,
    else branches push its negation (see :func:`_negated`), so guard
    polarity is always truthful.  Nested function definitions are
    opaque, as everywhere in the analysis package.
    """

    def __init__(self, emit_name: Optional[str]):
        self.emit_name = emit_name
        self.folds: Dict[str, str] = {}
        self.fold_sites: Dict[str, List[ast.AST]] = {}
        self.emits: List[EmitSite] = []
        self.breaks: List[BreakSite] = []

    def scan(
        self,
        stmts: List[ast.stmt],
        region: str,
        guards: Tuple[ast.expr, ...] = (),
    ) -> None:
        in_loop = region == "loop"
        for i, stmt in enumerate(stmts):
            followed_by_break = i + 1 < len(stmts) and isinstance(
                stmts[i + 1], ast.Break
            )
            if isinstance(stmt, ast.If):
                self._expr_emits(stmt.test, region, guards)
                self._header_walruses(stmt.test, in_loop, stmt)
                self.scan(stmt.body, region, guards + (stmt.test,))
                self.scan(
                    stmt.orelse, region, guards + (_negated(stmt.test),)
                )
                continue
            if isinstance(stmt, ast.Break):
                self.breaks.append(BreakSite(node=stmt, guards=guards))
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                # only reachable for non-neighbor loops outside the
                # neighbor loop (the analyzer rejects nested ones)
                header = (
                    stmt.iter if isinstance(stmt, ast.For) else stmt.test
                )
                self._expr_emits(header, region, guards)
                self._header_walruses(header, in_loop, stmt)
                self.scan(stmt.body, region, guards)
                self.scan(stmt.orelse, region, guards)
                continue
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    self._expr_emits(item.context_expr, region, guards)
                    self._header_walruses(item.context_expr, in_loop, stmt)
                self.scan(stmt.body, region, guards)
                continue
            if in_loop:
                self._record_folds(stmt, guards)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            self._stmt_emits(stmt, region, guards, followed_by_break)

    # -- folds ---------------------------------------------------------

    def _header_walruses(
        self, expr: ast.expr, in_loop: bool, stmt: ast.stmt
    ) -> None:
        """Walrus stores in a control-flow header (``if``/``while``
        test, ``for`` iterable, ``with`` context expr) re-bind a name
        every iteration; inside the neighbor loop that is beyond the
        fold grammar, so classify the target OPAQUE."""
        if not in_loop:
            return
        for nw in _walruses(expr):
            if isinstance(nw.target, ast.Name):
                self._join_fold(nw.target.id, FoldKind.OPAQUE, stmt)

    def _record_folds(
        self, stmt: ast.stmt, guards: Tuple[ast.expr, ...]
    ) -> None:
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.target, ast.Name
        ):
            self._join_fold(stmt.target.id, _classify_aug(stmt), stmt)
        elif (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            name = stmt.targets[0].id
            self._join_fold(name, _classify_assign(name, stmt.value, guards), stmt)
        else:
            # any other store (tuple unpack, annotated assign, walrus,
            # with-target...) is beyond the fold grammar
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                    self._join_fold(n.id, FoldKind.OPAQUE, stmt)

    def _join_fold(self, name: str, kind: str, node: ast.AST) -> None:
        joined = fold_join(self.folds.get(name, FoldKind.NONE), kind)
        self.folds[name] = joined
        self.fold_sites.setdefault(name, []).append(node)

    # -- emits ---------------------------------------------------------

    def _stmt_emits(
        self,
        stmt: ast.stmt,
        region: str,
        guards: Tuple[ast.expr, ...],
        followed_by_break: bool,
    ) -> None:
        direct = None
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and self._is_emit(stmt.value)
        ):
            direct = stmt.value
            self.emits.append(
                EmitSite(
                    node=direct,
                    region=region,
                    guards=guards,
                    followed_by_break=followed_by_break,
                )
            )
        for call in self._emit_calls(stmt):
            if call is direct:
                continue
            self.emits.append(
                EmitSite(node=call, region=region, guards=guards)
            )

    def _expr_emits(
        self, node: ast.expr, region: str, guards: Tuple[ast.expr, ...]
    ) -> None:
        for call in self._emit_calls(node):
            self.emits.append(
                EmitSite(node=call, region=region, guards=guards)
            )

    def _is_emit(self, call: ast.Call) -> bool:
        return (
            self.emit_name is not None
            and isinstance(call.func, ast.Name)
            and call.func.id == self.emit_name
        )

    def _emit_calls(self, node: ast.AST) -> List[ast.Call]:
        out = []
        # include the root: a header expression may *be* the emit call
        # (e.g. ``while emit(x):``)
        stack = [node]
        while stack:
            child = stack.pop()
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
            ):
                continue
            if isinstance(child, ast.Call) and self._is_emit(child):
                out.append(child)
            stack.extend(ast.iter_child_nodes(child))
        return out


# -- state-read collection ---------------------------------------------


def _collect_state_reads(sig: SignalAst) -> Tuple[StateRead, ...]:
    if len(sig.params) < 3:
        return ()
    state_name = sig.params[2]
    reads: List[StateRead] = []
    subscripted: Set[int] = set()
    order: List[ast.AST] = [
        n
        for n in ast.walk(sig.func)
        if isinstance(n, (ast.Attribute, ast.Subscript))
    ]
    order.sort(key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
    for node in order:
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == state_name
        ):
            index = node.slice
            reads.append(
                StateRead(
                    attr=node.value.attr,
                    kind="array",
                    index=index.id if isinstance(index, ast.Name) else None,
                    node=node,
                )
            )
            subscripted.add(id(node.value))
    for node in order:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == state_name
            and id(node) not in subscripted
        ):
            reads.append(
                StateRead(attr=node.attr, kind="scalar", index=None, node=node)
            )
    reads.sort(key=lambda r: (getattr(r.node, "lineno", 0),
                              getattr(r.node, "col_offset", 0)))
    return tuple(reads)


# -- entry point -------------------------------------------------------


def summarize(
    sig: SignalAst, info: Optional[DependencyInfo] = None
) -> UdfSummary:
    """Abstractly interpret a parsed signal UDF.

    ``info`` may be supplied when the caller already ran
    :func:`~repro.analysis.ast_analysis.analyze_parsed`; otherwise it
    is recomputed here.  Pure static derivation — the UDF never runs.
    """
    if info is None:
        info = analyze_parsed(sig)
    cfg = build_cfg(sig.func)
    rd = ReachingDefinitions(cfg, sig.params)
    var_types = _TypeInterp(sig, cfg, rd).run()

    emit_name = sig.params[3] if len(sig.params) > 3 else None
    scanner = _LoopScanner(emit_name)
    if sig.loop is not None:
        body = sig.func.body
        scanner.scan(body[: sig.loop_index], "pre")
        scanner.scan(list(sig.loop.body), "loop")
        scanner.scan(body[sig.loop_index + 1 :], "post")
    else:
        scanner.scan(sig.func.body, "pre")

    return UdfSummary(
        sig=sig,
        info=info,
        cfg=cfg,
        rd=rd,
        var_types=var_types,
        folds=scanner.folds,
        fold_sites=scanner.fold_sites,
        state_reads=_collect_state_reads(sig),
        emits=tuple(scanner.emits),
        breaks=tuple(scanner.breaks),
        effects=signal_effects(sig),
    )

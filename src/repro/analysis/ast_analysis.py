"""UDF analysis pass (the paper's Section 4.2, first pass).

The SympleGraph analyzer inspects a *signal* UDF and decides:

1. does it traverse the neighbor sequence in a loop?
2. does the loop carry a dependency — a ``break`` (control dependency)
   and/or variables whose value flows across loop iterations (data
   dependency, e.g. K-core's running count or sampling's prefix sum)?
3. which variables make up the dependency state to propagate?

The paper implements this as two clang LibTooling passes over the
Clang AST of C++ lambdas; here the same analysis runs over the Python
``ast`` of a signal function.  Signal UDFs follow the signal-slot
convention::

    def signal(v, nbrs, s, emit):
        for u in nbrs:          # the neighbor loop (2nd parameter)
            ...
            emit(value)
            break               # loop-carried control dependency

Since the dataflow rewrite, carried variables are computed from
reaching definitions over the UDF's control-flow graph
(:mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow`): a
variable is carried iff a definition inside the loop flows around the
back edge *and* a use inside the loop is upward-exposed to it.  This
accepts shapes the seed's syntactic matcher rejected — conditional
initialization, tuple unpacking, multiple pre-loop writes — while
still refusing the constructs that defeat the source-level transform
(nested loops and ``return`` inside the neighbor loop), now with
CFG-located error messages.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import ReachingDefinitions, loop_carried_vars
from repro.errors import AnalysisError

__all__ = ["DependencyInfo", "analyze_signal", "parse_signal", "SignalAst"]


@dataclass(frozen=True)
class DependencyInfo:
    """Result of analyzing a signal UDF."""

    has_neighbor_loop: bool
    has_break: bool
    carried_vars: Tuple[str, ...] = ()
    loop_var: Optional[str] = None
    nbrs_param: Optional[str] = None

    @property
    def has_dependency(self) -> bool:
        """True if any loop-carried dependency (control or data) exists."""
        return self.has_break or bool(self.carried_vars)

    @property
    def has_control_dependency(self) -> bool:
        return self.has_break

    @property
    def has_data_dependency(self) -> bool:
        return bool(self.carried_vars)


@dataclass
class SignalAst:
    """Parsed signal function, shared between analysis and instrumentation."""

    func: ast.FunctionDef
    module: ast.Module
    params: Tuple[str, ...]
    loop: Optional[ast.For]
    loop_index: int  # position of the loop in func.body
    source: str
    globals: dict = field(repr=False, default_factory=dict)
    filename: str = "<string>"
    line_offset: int = 0  # first source line of the def, minus one

    def location(self, node: ast.AST) -> str:
        """``file:line`` of an AST node, in absolute file coordinates."""
        line = getattr(node, "lineno", 0) + self.line_offset
        return f"{self.filename}:{line}"


def parse_signal(fn: Callable) -> SignalAst:
    """Parse a signal function into its AST, validating the convention."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:
        raise AnalysisError(
            f"cannot retrieve source of {fn!r}; signal UDFs must be "
            "defined in source files (or use the fold_while DSL)"
        ) from exc
    try:
        module = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - getsource gave bad text
        raise AnalysisError(f"cannot parse signal source: {exc}") from exc
    if not module.body or not isinstance(module.body[0], ast.FunctionDef):
        raise AnalysisError("signal UDF must be a plain function definition")
    func = module.body[0]
    params = tuple(arg.arg for arg in func.args.args)
    if len(params) < 2:
        raise AnalysisError(
            "signal UDF needs at least (v, nbrs, ...) parameters"
        )
    nbrs_param = params[1]
    loop, loop_index = _find_neighbor_loop(func, nbrs_param)
    try:
        filename = inspect.getsourcefile(fn) or "<string>"
    except TypeError:  # pragma: no cover - builtins fail getsource first
        filename = "<string>"
    code = getattr(fn, "__code__", None)
    line_offset = (code.co_firstlineno - 1) if code is not None else 0
    return SignalAst(
        func=func,
        module=module,
        params=params,
        loop=loop,
        loop_index=loop_index,
        source=source,
        globals=getattr(fn, "__globals__", {}),
        filename=filename,
        line_offset=line_offset,
    )


def _find_neighbor_loop(
    func: ast.FunctionDef, nbrs_param: str
) -> Tuple[Optional[ast.For], int]:
    """Locate the top-level ``for u in nbrs`` loop."""
    for index, stmt in enumerate(func.body):
        if (
            isinstance(stmt, ast.For)
            and isinstance(stmt.iter, ast.Name)
            and stmt.iter.id == nbrs_param
        ):
            if not isinstance(stmt.target, ast.Name):
                raise AnalysisError(
                    "neighbor loop must bind a single variable"
                )
            return stmt, index
    return None, -1


def _walk_same_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a subtree without descending into nested function scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _check_loop_body(sig: SignalAst) -> bool:
    """Enforce the structural restrictions on the neighbor loop.

    Nested loops and ``return`` defeat the source-level transform (as
    they would the paper's clang one); both are rejected with a
    CFG-located message.  Breaks belonging to the loop are counted
    here; nested function definitions are opaque scopes and ignored.
    """
    loop = sig.loop
    assert loop is not None
    has_break = False
    for node in _walk_same_scope(loop):
        if isinstance(node, (ast.For, ast.While)):
            raise AnalysisError(
                f"nested loop at {sig.location(node)}: nested loops "
                "inside the neighbor loop are not supported by the "
                "analyzer (restructure the UDF or use fold_while)"
            )
        if isinstance(node, ast.Return):
            raise AnalysisError(
                f"return at {sig.location(node)}: return inside the "
                "neighbor loop defeats instrumentation; use break"
            )
        if isinstance(node, ast.Break):
            has_break = True
    return has_break


def analyze_signal(fn: Callable) -> DependencyInfo:
    """Analyze a signal UDF for loop-carried dependency (first pass)."""
    return analyze_parsed(parse_signal(fn))


def analyze_parsed(sig: SignalAst) -> DependencyInfo:
    """Analyze an already-parsed signal."""
    if sig.loop is None:
        return DependencyInfo(has_neighbor_loop=False, has_break=False)
    has_break = _check_loop_body(sig)
    cfg = build_cfg(sig.func)
    rd = ReachingDefinitions(cfg, sig.params)
    header = cfg.header_of(sig.loop)
    carried = tuple(
        name
        for name in loop_carried_vars(cfg, rd, header)
        if name not in sig.params
    )
    return DependencyInfo(
        has_neighbor_loop=True,
        has_break=has_break,
        carried_vars=carried,
        loop_var=sig.loop.target.id,
        nbrs_param=sig.params[1],
    )


"""Classic forward/backward dataflow over the signal-UDF CFG.

Three textbook analyses power the analyzer and the lint rules:

* **Reaching definitions** (forward, may): which assignments can still
  be "live" at a program point.  Synthetic definitions model function
  parameters and the *uninitialized* state of every local, so
  possibly-undefined uses fall out of the same fixpoint.
* **Live variables** (backward, may): which names are read later.
* **Def-use chains**: the edges between the two.

On top of these, :func:`loop_carried_vars` computes the paper's data
dependency *precisely*: a variable is loop-carried iff a definition
inside the loop flows around the back edge (it is in the OUT set of a
latch block) **and** some use inside the loop can observe it (the use
is upward-exposed — reachable from the loop header without an
intervening redefinition).  This replaces the seed analyzer's
"assigned before the loop + stored and loaded inside it" name
heuristic, and is what lifts the single-assignment restriction:
conditional initialization, augmented assignment, and tuple unpacking
are just definitions like any other.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Set, Tuple

from repro.analysis.cfg import CFG, Instr

__all__ = [
    "Definition",
    "ReachingDefinitions",
    "LiveVariables",
    "def_use_chains",
    "loop_carried_vars",
    "definitely_assigned_at",
    "instr_defs",
    "instr_uses",
]

PARAM_BLOCK = -1
UNINIT_BLOCK = -2


class Definition(NamedTuple):
    """One definition site: ``(var, block, index)``.

    ``block`` is ``-1`` for the synthetic parameter definition at
    function entry and ``-2`` for the synthetic "uninitialized"
    definition every local carries until a real assignment kills it.
    """

    var: str
    block: int
    index: int

    @property
    def is_real(self) -> bool:
        """True for a definition written by actual code."""
        return self.block >= 0


class _Names(ast.NodeVisitor):
    """Collect loaded/stored names, respecting nested scopes.

    Nested function/class definitions are opaque (they only define
    their own name); comprehension targets are scoped out so they never
    surface as function-local definitions.
    """

    def __init__(self) -> None:
        self.loads: List[str] = []
        self.stores: List[str] = []

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loads.append(node.id)
        elif isinstance(node.ctx, ast.Store):
            self.stores.append(node.id)

    def visit_FunctionDef(self, node) -> None:
        self.stores.append(node.name)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def visit_Lambda(self, node) -> None:  # opaque: no names leak out
        pass

    def _comprehension(self, node) -> None:
        inner = _Names()
        for child in ast.iter_child_nodes(node):
            inner.visit(child)
        # Only the comprehension's own for-targets are scoped out.
        # Walrus targets (PEP 572) bind in the *enclosing* function
        # scope and must surface as definitions here; nested
        # comprehensions have already scoped out their own targets.
        bound = set()
        for gen in node.generators:
            for t in ast.walk(gen.target):
                if isinstance(t, ast.Name):
                    bound.add(t.id)
        self.stores.extend(n for n in inner.stores if n not in bound)
        self.loads.extend(n for n in inner.loads if n not in bound)

    visit_ListComp = _comprehension
    visit_SetComp = _comprehension
    visit_DictComp = _comprehension
    visit_GeneratorExp = _comprehension


def _collect(node: ast.AST) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    names = _Names()
    names.visit(node)
    return tuple(names.stores), tuple(names.loads)


def instr_defs(instr: Instr) -> Tuple[str, ...]:
    """Names (possibly) defined by one CFG instruction."""
    return _defs_uses(instr)[0]


def instr_uses(instr: Instr) -> Tuple[str, ...]:
    """Names read by one CFG instruction (before its own definitions)."""
    return _defs_uses(instr)[1]


def _defs_uses(instr: Instr) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    node = instr.node
    if instr.kind == "for-header":
        defs, _ = _collect(node.target)
        # a walrus in the iterable (`for w in (ws := f())`) defines a
        # name too — collect stores from both sides
        iter_defs, uses = _collect(node.iter)
        return defs + iter_defs, uses
    if instr.kind == "test":
        defs, uses = _collect(node)
        return defs, uses
    if instr.kind == "with-enter":
        defs: List[str] = []
        uses: List[str] = []
        for item in node.items:
            d, u = _collect(item.context_expr)
            defs.extend(d)
            uses.extend(u)
            if item.optional_vars is not None:
                d, _ = _collect(item.optional_vars)
                defs.extend(d)
        return tuple(defs), tuple(uses)
    if isinstance(node, ast.AugAssign):
        defs, uses = _collect(node)
        # `x += e` reads x before writing it; the generic walker only
        # sees the Store context on the target.
        if isinstance(node.target, ast.Name):
            uses = uses + (node.target.id,)
        return defs, uses
    return _collect(node)


class ReachingDefinitions:
    """Forward may-analysis: which definitions reach each point.

    The boundary set at function entry holds one parameter definition
    per parameter and one *uninit* definition per local (a name with at
    least one real definition that is not a parameter).  A use reached
    by its uninit definition is possibly undefined on some path.
    """

    def __init__(self, cfg: CFG, params: Sequence[str]) -> None:
        self.cfg = cfg
        self.params = tuple(params)

        # enumerate real definitions and group all defs by var
        self.defs_by_var: Dict[str, Set[Definition]] = {}
        self._instr_defs: Dict[Tuple[int, int], Tuple[str, ...]] = {}
        self._instr_uses: Dict[Tuple[int, int], Tuple[str, ...]] = {}
        for block_id, index, instr in cfg.instructions():
            defs, uses = _defs_uses(instr)
            self._instr_defs[(block_id, index)] = defs
            self._instr_uses[(block_id, index)] = uses
            for var in defs:
                self.defs_by_var.setdefault(var, set()).add(
                    Definition(var, block_id, index)
                )

        self.local_vars: FrozenSet[str] = frozenset(
            v for v in self.defs_by_var if v not in self.params
        )
        boundary: Set[Definition] = set()
        for k, p in enumerate(self.params):
            d = Definition(p, PARAM_BLOCK, k)
            boundary.add(d)
            self.defs_by_var.setdefault(p, set()).add(d)
        for var in self.local_vars:
            d = Definition(var, UNINIT_BLOCK, 0)
            boundary.add(d)
            self.defs_by_var[var].add(d)
        self.boundary = frozenset(boundary)

        self._in: Dict[int, Set[Definition]] = {}
        self._out: Dict[int, Set[Definition]] = {}
        self._solve()

    def _transfer(self, block_id: int, facts: Set[Definition]) -> Set[Definition]:
        out = set(facts)
        for index, _ in enumerate(self.cfg.blocks[block_id].instrs):
            for var in self._instr_defs[(block_id, index)]:
                out -= self.defs_by_var.get(var, set())
                out.add(Definition(var, block_id, index))
        return out

    def _solve(self) -> None:
        blocks = list(self.cfg.blocks)
        for b in blocks:
            self._in[b] = set()
            self._out[b] = set()
        self._in[self.cfg.entry] = set(self.boundary)
        worklist = list(blocks)
        while worklist:
            b = worklist.pop(0)
            preds = self.cfg.blocks[b].preds
            if preds:
                new_in: Set[Definition] = set()
                for p in preds:
                    new_in |= self._out[p]
            else:
                new_in = set(self.boundary) if b == self.cfg.entry else set()
            new_out = self._transfer(b, new_in)
            changed = new_in != self._in[b] or new_out != self._out[b]
            self._in[b] = new_in
            self._out[b] = new_out
            if changed:
                for s in self.cfg.blocks[b].succs:
                    if s not in worklist:
                        worklist.append(s)

    # -- queries -------------------------------------------------------

    def reaching_in(self, block_id: int) -> Set[Definition]:
        """Definitions reaching the start of a block."""
        return set(self._in[block_id])

    def out_of(self, block_id: int) -> Set[Definition]:
        """Definitions reaching the end of a block."""
        return set(self._out[block_id])

    def reaching_at(self, block_id: int, index: int) -> Set[Definition]:
        """Definitions reaching instruction ``index`` (before it runs)."""
        facts = set(self._in[block_id])
        for i in range(index):
            for var in self._instr_defs[(block_id, i)]:
                facts -= self.defs_by_var.get(var, set())
                facts.add(Definition(var, block_id, i))
        return facts

    def defs_at(self, block_id: int, index: int) -> Tuple[str, ...]:
        """Names defined by the instruction at ``(block, index)``."""
        return self._instr_defs[(block_id, index)]

    def uses_at(self, block_id: int, index: int) -> Tuple[str, ...]:
        """Names used by the instruction at ``(block, index)``."""
        return self._instr_uses[(block_id, index)]

    def possibly_undefined(self, var: str, block_id: int, index: int) -> bool:
        """Can ``var`` be unbound when ``(block, index)`` reads it?"""
        if var not in self.local_vars:
            return False
        uninit = Definition(var, UNINIT_BLOCK, 0)
        return uninit in self.reaching_at(block_id, index)


class LiveVariables:
    """Backward may-analysis: names whose current value is read later."""

    def __init__(self, cfg: CFG, rd: ReachingDefinitions) -> None:
        self.cfg = cfg
        self._rd = rd
        self._use: Dict[int, Set[str]] = {}
        self._def: Dict[int, Set[str]] = {}
        for b, block in cfg.blocks.items():
            use: Set[str] = set()
            defined: Set[str] = set()
            for index, _ in enumerate(block.instrs):
                for var in rd.uses_at(b, index):
                    if var not in defined:
                        use.add(var)
                for var in rd.defs_at(b, index):
                    defined.add(var)
            self._use[b] = use
            self._def[b] = defined
        self._in: Dict[int, Set[str]] = {b: set() for b in cfg.blocks}
        self._out: Dict[int, Set[str]] = {b: set() for b in cfg.blocks}
        self._solve()

    def _solve(self) -> None:
        worklist = list(self.cfg.blocks)
        while worklist:
            b = worklist.pop(0)
            out: Set[str] = set()
            for s in self.cfg.blocks[b].succs:
                out |= self._in[s]
            new_in = self._use[b] | (out - self._def[b])
            changed = out != self._out[b] or new_in != self._in[b]
            self._out[b] = out
            self._in[b] = new_in
            if changed:
                for p in self.cfg.blocks[b].preds:
                    if p not in worklist:
                        worklist.append(p)

    def live_in(self, block_id: int) -> Set[str]:
        """Names live at block entry."""
        return set(self._in[block_id])

    def live_out(self, block_id: int) -> Set[str]:
        """Names live at block exit."""
        return set(self._out[block_id])


def def_use_chains(
    cfg: CFG, rd: ReachingDefinitions
) -> Dict[Definition, List[Tuple[int, int]]]:
    """Map each definition to the ``(block, index)`` sites that read it."""
    chains: Dict[Definition, List[Tuple[int, int]]] = {}
    for block_id, index, _ in cfg.instructions():
        reaching = rd.reaching_at(block_id, index)
        for var in rd.uses_at(block_id, index):
            for d in reaching:
                if d.var == var:
                    chains.setdefault(d, []).append((block_id, index))
    return chains


def loop_carried_vars(
    cfg: CFG, rd: ReachingDefinitions, header_id: int
) -> Tuple[str, ...]:
    """Variables whose value flows across iterations of one loop.

    ``x`` is loop-carried iff (a) some definition of ``x`` inside the
    loop reaches a latch block's exit — it survives to the end of an
    iteration — and (b) some use of ``x`` inside the loop is
    upward-exposed from the loop header, i.e. reachable without an
    intervening redefinition, so the next iteration can observe the
    previous one's value.  The loop target is never carried: the header
    redefines it before any use.
    """
    loop = cfg.natural_loop(header_id)

    # (a) definitions flowing around the back edge
    around: Set[str] = set()
    for latch in cfg.latches(header_id):
        for d in rd.out_of(latch):
            if d.is_real and d.block in loop:
                around.add(d.var)
    if not around:
        return ()

    # (b) upward-exposed uses: forward "maybe not yet redefined this
    # iteration" propagation over the loop subgraph only.
    maybe_in: Dict[int, Set[str]] = {b: set() for b in loop}
    maybe_in[header_id] = set(around)

    def transfer(block_id: int, facts: Set[str]) -> Set[str]:
        out = set(facts)
        for index, _ in enumerate(cfg.blocks[block_id].instrs):
            for var in rd.defs_at(block_id, index):
                out.discard(var)
        return out

    worklist = [header_id]
    while worklist:
        b = worklist.pop(0)
        out = transfer(b, maybe_in[b])
        for s in cfg.blocks[b].succs:
            if s not in loop or s == header_id:
                continue  # exits and back edges don't propagate
            if not out <= maybe_in[s]:
                maybe_in[s] |= out
                if s not in worklist:
                    worklist.append(s)

    exposed: Set[str] = set()
    for b in loop:
        facts = set(maybe_in[b])
        for index, _ in enumerate(cfg.blocks[b].instrs):
            for var in rd.uses_at(b, index):
                if var in facts:
                    exposed.add(var)
            for var in rd.defs_at(b, index):
                facts.discard(var)
    return tuple(sorted(exposed & around))


def definitely_assigned_at(
    cfg: CFG, rd: ReachingDefinitions, block_id: int, var: str
) -> bool:
    """Is ``var`` bound on *every* path reaching ``block_id``?

    Considers only forward edges, so for a loop header this asks about
    the state on loop entry (parameters are always bound).
    """
    if var in rd.params:
        return True
    if var not in rd.local_vars:
        return False
    uninit = Definition(var, UNINIT_BLOCK, 0)
    preds = cfg.forward_preds(block_id)
    if not preds:
        return False  # entry or unreachable: no binding yet
    return all(uninit not in rd.out_of(p) for p in preds)

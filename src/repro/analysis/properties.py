"""Empirical checkers for the paper's formal properties (Section 2.2).

The paper formalizes when a vertex function is safe to distribute:

* Definition 2.1 — *associative-decomposable*: ``H = C . I`` with a
  commutative, associative combiner ``C`` (the slot);
* Definition 2.2 — *parallelized* associative-decomposable: ``I`` also
  preserves concatenation, i.e. running the signal independently on
  neighbor sub-sequences and combining gives the sequential answer;
* Definition 2.3 — ``I`` has *no loop-carried dependency* iff
  ``I(u2 | u1) = I(u2)``.

These cannot be decided statically for arbitrary Python, so this module
provides randomized *checkers*: they execute the UDF on sampled neighbor
sequences/splits and report counterexamples.  Engines do not depend on
them; they exist so algorithm authors can validate a new UDF the way
the framework's own test-suite validates the paper's five.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.analysis.instrument import AnalyzedSignal, instrument_signal
from repro.engine.dep import DepStore, carried_dtypes
from repro.engine.state import StateStore

__all__ = [
    "CheckResult",
    "check_slot_commutative",
    "check_no_loop_carried_dependency",
    "check_parallel_decomposable",
    "check_dependency_threading",
]


@dataclass
class CheckResult:
    """Outcome of a randomized property check."""

    holds: bool
    cases_checked: int
    counterexample: Optional[str] = None

    def __bool__(self) -> bool:
        return self.holds


def _run_signal(fn: Callable, v: int, nbrs: Sequence[int], state) -> List:
    emitted: List = []
    fn(v, list(nbrs), state, emitted.append)
    return emitted


def _fold_slot(slot: Callable, values: Sequence, state, v: int):
    for value in values:
        slot(v, value, state)


def check_slot_commutative(
    slot: Callable,
    make_state: Callable[[], StateStore],
    observe: Callable[[StateStore], object],
    value_pool: Sequence,
    v: int = 0,
    trials: int = 50,
    seed: int = 0,
) -> CheckResult:
    """Check Definition 2.1's requirement on the combiner ``C``.

    Applies random update sequences to fresh state in two random orders
    and compares the observation.  ``observe`` extracts the state the
    slot folds into (e.g. ``lambda s: s.count[0]``).
    """
    rng = np.random.default_rng(seed)
    for case in range(trials):
        size = int(rng.integers(0, 6))
        values = [value_pool[int(i)] for i in rng.integers(0, len(value_pool), size)]
        perm = list(values)
        rng.shuffle(perm)
        s1, s2 = make_state(), make_state()
        _fold_slot(slot, values, s1, v)
        _fold_slot(slot, perm, s2, v)
        o1, o2 = observe(s1), observe(s2)
        if not _equal(o1, o2):
            return CheckResult(
                False,
                case + 1,
                f"order {values} -> {o1!r}, order {perm} -> {o2!r}",
            )
    return CheckResult(True, trials)


def check_no_loop_carried_dependency(
    signal: Callable,
    make_state: Callable[[], StateStore],
    neighbor_pool: Sequence[int],
    v: int = 0,
    trials: int = 50,
    seed: int = 0,
) -> CheckResult:
    """Check Definition 2.3 empirically: is ``I(u2 | u1) = I(u2)``?

    Runs the *instrumented* signal on ``u2`` with and without the
    dependency state left behind by ``u1``.  Any difference (in
    emissions or in the skip bit) witnesses a loop-carried dependency.
    """
    analyzed = _analyzed(signal)
    if analyzed.instrumented is None:
        return CheckResult(True, 0)  # nothing carried, trivially free
    rng = np.random.default_rng(seed)
    pool = list(neighbor_pool)
    for case in range(trials):
        rng.shuffle(pool)
        cut = int(rng.integers(0, len(pool)))
        u1, u2 = pool[:cut], pool[cut:]
        state = make_state()

        carried = carried_dtypes(analyzed, state)
        fresh = DepStore(v + 1, carried)
        plain = _run_instrumented(analyzed, v, u2, state, fresh)

        threaded = DepStore(v + 1, carried)
        _run_instrumented(analyzed, v, u1, state, threaded)
        conditioned = _run_instrumented(analyzed, v, u2, state, threaded)

        if plain != conditioned:
            return CheckResult(
                False,
                case + 1,
                f"I({u2}) = {plain} but I({u2}|{u1}) = {conditioned}",
            )
    return CheckResult(True, trials)


def check_parallel_decomposable(
    signal: Callable,
    slot: Callable,
    make_state: Callable[[], StateStore],
    observe: Callable[[StateStore], object],
    neighbor_pool: Sequence[int],
    v: int = 0,
    trials: int = 30,
    max_splits: int = 3,
    seed: int = 0,
) -> CheckResult:
    """Check Definition 2.2: independent per-chunk signals + slot give
    the sequential answer.

    This is the property existing frameworks *require*; the paper's
    point is that many dependency UDFs satisfy it for the final result
    even though the intermediate work differs.
    """
    rng = np.random.default_rng(seed)
    pool = list(neighbor_pool)
    for case in range(trials):
        rng.shuffle(pool)
        nbrs = pool[: int(rng.integers(1, len(pool) + 1))]
        cuts = sorted(
            int(c) for c in rng.integers(1, max(len(nbrs), 2), size=max_splits)
        )
        chunks = _split(nbrs, cuts)

        state_seq = make_state()
        seq_updates = _run_signal(signal, v, nbrs, state_seq)
        _fold_slot(slot, seq_updates, state_seq, v)

        state_par = make_state()
        par_updates: List = []
        for chunk in chunks:
            par_updates.extend(_run_signal(signal, v, chunk, state_par))
        _fold_slot(slot, par_updates, state_par, v)

        o_seq, o_par = observe(state_seq), observe(state_par)
        if not _equal(o_seq, o_par):
            return CheckResult(
                False,
                case + 1,
                f"neighbors {nbrs} split {chunks}: "
                f"sequential -> {o_seq!r}, parallel -> {o_par!r}",
            )
    return CheckResult(True, trials)


def check_dependency_threading(
    signal: Callable,
    make_state: Callable[[], StateStore],
    neighbor_pool: Sequence[int],
    v: int = 0,
    trials: int = 30,
    seed: int = 0,
    normalize: Optional[Callable[[List], object]] = None,
) -> CheckResult:
    """Check the instrumentation contract: threading the dependency
    through arbitrary splits reproduces the sequential emissions
    (Definition 2.4's ``I(u1 (+) u2) = I(u1) (+) I(u2|u1)``).

    Delta-style accumulator UDFs (K-core's count) legitimately emit one
    partial value per chunk instead of one total; pass ``normalize``
    (e.g. ``sum``) to compare the folded value instead of the raw
    emission list.
    """
    analyzed = _analyzed(signal)
    rng = np.random.default_rng(seed)
    pool = list(neighbor_pool)
    for case in range(trials):
        rng.shuffle(pool)
        nbrs = pool[: int(rng.integers(1, len(pool) + 1))]
        state = make_state()
        sequential = _run_signal(analyzed.original, v, nbrs, state)

        if analyzed.instrumented is None:
            distributed = []
            for chunk in _split(nbrs, [len(nbrs) // 2]):
                distributed.extend(
                    _run_signal(analyzed.original, v, chunk, state)
                )
        else:
            store = DepStore(v + 1, carried_dtypes(analyzed, state))
            distributed = []
            cuts = sorted(
                int(c)
                for c in rng.integers(1, max(len(nbrs), 2), size=2)
            )
            for chunk in _split(nbrs, cuts):
                if store.skip[v]:
                    break
                distributed.extend(
                    _run_instrumented(analyzed, v, chunk, state, store)
                )
        lhs = normalize(sequential) if normalize else sequential
        rhs = normalize(distributed) if normalize else distributed
        if not _equal(lhs, rhs):
            return CheckResult(
                False,
                case + 1,
                f"neighbors {nbrs}: sequential {sequential} != "
                f"threaded {distributed}",
            )
    return CheckResult(True, trials)


# -- helpers ------------------------------------------------------------


def _analyzed(signal: Callable) -> AnalyzedSignal:
    if isinstance(signal, AnalyzedSignal):
        return signal
    return instrument_signal(signal)


def _run_instrumented(
    analyzed: AnalyzedSignal, v: int, nbrs: Sequence[int], state, store: DepStore
) -> List:
    emitted: List = []
    analyzed.instrumented(v, list(nbrs), state, emitted.append, store.handle(v))
    return emitted


def _split(items: Sequence, cuts: Sequence[int]) -> List[List]:
    chunks = []
    prev = 0
    for cut in itertools.chain(sorted(cuts), [len(items)]):
        cut = min(max(cut, prev), len(items))
        chunks.append(list(items[prev:cut]))
        prev = cut
    return [c for c in chunks if True]


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    return a == b

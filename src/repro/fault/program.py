"""Resumable vertex programs: framework-owned superstep loops.

Checkpoint/restore is only well-defined when the framework — not the
algorithm — owns the iteration loop (Pregel's design): the checkpoint
must capture everything the loop will read after a rollback.  A
:class:`VertexProgram` factors an algorithm into

* :meth:`setup` — declare state, return the :class:`StateStore`;
* :meth:`step` — one superstep (engine phases + the state transitions
  between them); return ``True`` to continue;
* :meth:`result` — package the final answer.

All loop-carried mutable values live either in the ``StateStore`` or
in the ``ctx`` dict the driver passes to every call — both are captured
by checkpoints.  Program instances themselves must hold only immutable
configuration and graph-derived read-only data, so a rollback never
needs to touch them.

:func:`run_program` is the plain driver: it produces byte-for-byte the
same execution as the hand-written loops it replaced (the public
algorithm functions are thin wrappers over it).
:func:`~repro.fault.recovery.run_recoverable` is the fault-tolerant
driver sharing the same protocol.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.engine.state import StateStore

__all__ = ["VertexProgram", "run_program"]


class VertexProgram:
    """An algorithm expressed as a resumable superstep loop."""

    name = "program"

    def setup(self, engine, ctx: Dict[str, Any]) -> StateStore:
        """Declare state, seed initial values, return the state store."""
        raise NotImplementedError

    def step(self, engine, s: StateStore, ctx: Dict[str, Any]) -> bool:
        """Run one superstep; return ``True`` while not converged."""
        raise NotImplementedError

    def result(self, engine, s: StateStore, ctx: Dict[str, Any]):
        """Package the final answer (must not run engine phases)."""
        raise NotImplementedError


def run_program(program: VertexProgram, engine):
    """Drive a program to convergence without fault tolerance."""
    ctx: Dict[str, Any] = {}
    s = program.setup(engine, ctx)
    while program.step(engine, s, ctx):
        pass
    return program.result(engine, s, ctx)

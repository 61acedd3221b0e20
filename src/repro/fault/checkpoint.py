"""Circulant-aware checkpointing.

A :class:`CheckpointStore` snapshots execution state at superstep
boundaries: the full :class:`~repro.engine.state.StateStore` (vertex
arrays, scalars, and the frontier arrays the algorithms keep there)
plus the resumable-loop context of the running
:class:`~repro.fault.program.VertexProgram`.  Snapshots are taken only
at superstep boundaries, which are also circulant *step* boundaries:
SympleGraph's per-pull :class:`~repro.engine.dep.DepStore` is transient
within a phase, so a crash severs the dependency circulation and
recovery restarts the interrupted phase with dependency bitmaps blanked
— correct by the paper's Section 5.1 incomplete-information guarantee
(the re-executed phase merely rediscovers its breaks).

The store models durable, replicated storage: writes survive crashes,
and their cost is charged through the ``ckpt`` communication tag and
the cost model's checkpoint term so overhead shows up in the
communication tables.  Recovery only ever restores the latest
snapshot, so that is the one the store keeps.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.engine.state import StateStore

__all__ = ["Checkpoint", "CheckpointStore", "snapshot_nbytes"]

_SCALAR_BYTES = 8  # wire size charged per non-array state field


def snapshot_nbytes(snapshot: Dict[str, Any]) -> int:
    """Serialized size of a state snapshot (arrays + scalars)."""
    total = 0
    for value in snapshot.values():
        if isinstance(value, np.ndarray):
            total += int(value.nbytes)
        else:
            total += _SCALAR_BYTES
    return total


@dataclass
class Checkpoint:
    """One durable snapshot of a run at a superstep boundary."""

    superstep: int
    state: Dict[str, Any]
    ctx: Dict[str, Any]
    nbytes: int = 0

    def restore_into(self, state: StateStore) -> Dict[str, Any]:
        """Load this snapshot back into a live state store.

        Arrays are copied, so re-execution cannot corrupt the stored
        snapshot; returns a fresh deep copy of the loop context.
        """
        state.restore(self.state)
        return copy.deepcopy(self.ctx)


class CheckpointStore:
    """The latest durable checkpoint, taken on an interval policy.

    ``interval`` of 0 disables checkpointing entirely; ``interval`` of
    N takes a snapshot entering supersteps 0, N, 2N, ... (the superstep
    0 baseline gives recovery a consistent restore point before the
    first interval elapses).
    """

    def __init__(self, interval: int = 0) -> None:
        if interval < 0:
            raise ValueError("checkpoint interval must be non-negative")
        self.interval = interval
        self._latest: Optional[Checkpoint] = None
        # overhead accounting, surfaced in recovery reports
        self.checkpoints_taken = 0
        self.bytes_written = 0
        self.restores = 0
        self.bytes_restored = 0

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    def due(self, superstep: int) -> bool:
        """Should a snapshot be taken entering this superstep?

        False for a superstep that already has one — recovery replays
        re-enter the restored superstep without re-writing it.
        """
        if not self.enabled:
            return False
        if self._latest is not None and superstep <= self._latest.superstep:
            return False
        return superstep % self.interval == 0

    def save(
        self, superstep: int, state: StateStore, ctx: Dict[str, Any]
    ) -> Checkpoint:
        """Snapshot the run entering ``superstep``, replacing the last."""
        snap = state.snapshot()
        checkpoint = Checkpoint(
            superstep=superstep,
            state=snap,
            ctx=copy.deepcopy(ctx),
            nbytes=snapshot_nbytes(snap),
        )
        self._latest = checkpoint
        self.checkpoints_taken += 1
        self.bytes_written += checkpoint.nbytes
        return checkpoint

    def latest(self) -> Optional[Checkpoint]:
        """The most recent checkpoint, or None before the first."""
        return self._latest

    def restore_latest(
        self, state: StateStore
    ) -> Optional[tuple[Checkpoint, Dict[str, Any]]]:
        """Restore the most recent checkpoint into ``state``.

        Returns ``(checkpoint, ctx)`` with a fresh deep copy of the
        loop context, or ``None`` when nothing has been saved yet
        (recovery then restarts from scratch)."""
        checkpoint = self.latest()
        if checkpoint is None:
            return None
        ctx = checkpoint.restore_into(state)
        self.restores += 1
        self.bytes_restored += checkpoint.nbytes
        return checkpoint, ctx

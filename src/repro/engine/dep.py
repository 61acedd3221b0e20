"""Dependency state runtime (the paper's DepMessage, Section 4.1 & 6).

Per-vertex dependency state is stored Struct-of-Arrays: one bitmap for
the control bit ("skip?"), plus one typed array per carried data
variable.  Instrumented UDFs interact with a lightweight per-vertex
:class:`DepHandle` exposing the primitives the generated code calls:

* ``dep.skip`` — the received control bit (``receive_dep``);
* ``dep.mark_break()`` — set the control bit (``emit_dep``);
* ``dep.load(name, default)`` / ``dep.store(name, value)`` — carried
  data state.

The engine owns the arrays; "sending" the dependency between machines
is a matter of byte accounting since the simulation shares memory.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

__all__ = ["DepStore", "DepHandle"]


class DepStore:
    """SoA dependency state for every vertex.

    With ``share_data=False`` the store propagates only the control bit
    between machines: ``load`` always answers the local default and
    ``store`` is a no-op.  This models control-only dependency — valid
    whenever the UDF is already Gemini-correct (e.g. K-core, where
    partial counts sum at the master and only the saturation *break*
    must travel) and the reference implementations ship exactly that.
    """

    def __init__(
        self,
        num_vertices: int,
        data_vars: Sequence[str] = (),
        share_data: bool = True,
    ) -> None:
        self.num_vertices = num_vertices
        self.share_data = share_data
        self.skip = np.zeros(num_vertices, dtype=bool)
        if not share_data:
            data_vars = ()
        self.data: Dict[str, np.ndarray] = {
            name: np.zeros(num_vertices, dtype=np.float64) for name in data_vars
        }
        self.present: Dict[str, np.ndarray] = {
            name: np.zeros(num_vertices, dtype=bool) for name in data_vars
        }

    def reset(self) -> None:
        self.skip[:] = False
        for name in self.data:
            self.data[name][:] = 0.0
            self.present[name][:] = False

    def handle(self, v: int, is_last: bool = False) -> "DepHandle":
        return DepHandle(self, v, is_last)

    def live_mask(self, vertices: np.ndarray) -> np.ndarray:
        """Which of ``vertices`` have not yet hit their break."""
        return ~self.skip[vertices]


class DepHandle:
    """Per-vertex view of the dependency state, passed to UDFs."""

    __slots__ = ("_store", "_v", "is_last")

    def __init__(self, store: DepStore, v: int, is_last: bool = False) -> None:
        self._store = store
        self._v = v
        self.is_last = is_last

    @property
    def skip(self) -> bool:
        """Control bit: a previous machine already broke for this vertex."""
        return bool(self._store.skip[self._v])

    def mark_break(self) -> None:
        """Record the break so following machines skip this vertex."""
        self._store.skip[self._v] = True

    def load(self, name: str, default: Any) -> Any:
        """Carried data from the previous machine, or ``default``."""
        if not self._store.share_data:
            return default
        if self._store.present[name][self._v]:
            return self._store.data[name][self._v]
        return default

    def store(self, name: str, value: Any) -> None:
        """Persist carried data for the next machine in the schedule."""
        if not self._store.share_data:
            return
        self._store.data[name][self._v] = value
        self._store.present[name][self._v] = True

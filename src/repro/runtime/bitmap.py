"""Dense bitmap over vertex ids.

The paper's dependency state for control dependency is "a bit map (one
bit per vertex)" stored SoA-style (Section 6).  This class wraps a
NumPy boolean array with the operations the engines need, plus the
wire-size accounting used by the communication counters (one bit per
vertex, rounded up to whole bytes).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["Bitmap"]


class Bitmap:
    """Fixed-size bitmap with set/test/clear and population count."""

    __slots__ = ("_bits",)

    def __init__(self, size: int, fill: bool = False) -> None:
        self._bits = np.full(size, fill, dtype=bool)

    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int]) -> "Bitmap":
        bm = cls(size)
        idx = np.fromiter(indices, dtype=np.int64)
        if idx.size:
            bm._bits[idx] = True
        return bm

    @classmethod
    def from_array(cls, array: np.ndarray) -> "Bitmap":
        bm = cls(len(array))
        bm._bits[:] = array.astype(bool)
        return bm

    # -- element access ---------------------------------------------------

    def __len__(self) -> int:
        return int(self._bits.size)

    def get(self, i: int) -> bool:
        return bool(self._bits[i])

    def set(self, i: int, value: bool = True) -> None:
        self._bits[i] = value

    def __getitem__(self, i) -> bool:
        return self._bits[i]

    def __setitem__(self, i, value) -> None:
        self._bits[i] = value

    # -- bulk operations ----------------------------------------------------

    def clear(self) -> None:
        self._bits[:] = False

    def fill(self) -> None:
        self._bits[:] = True

    def count(self) -> int:
        """Number of set bits."""
        return int(self._bits.sum())

    def nonzero(self) -> np.ndarray:
        """Indices of set bits, ascending."""
        return np.flatnonzero(self._bits)

    def any(self) -> bool:
        return bool(self._bits.any())

    def copy(self) -> "Bitmap":
        bm = Bitmap(len(self))
        bm._bits[:] = self._bits
        return bm

    # -- set algebra ----------------------------------------------------------

    def union(self, other: "Bitmap") -> "Bitmap":
        return Bitmap.from_array(self._bits | other._bits)

    def intersection(self, other: "Bitmap") -> "Bitmap":
        return Bitmap.from_array(self._bits & other._bits)

    def difference(self, other: "Bitmap") -> "Bitmap":
        return Bitmap.from_array(self._bits & ~other._bits)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        return self.union(other)

    def __and__(self, other: "Bitmap") -> "Bitmap":
        return self.intersection(other)

    def __sub__(self, other: "Bitmap") -> "Bitmap":
        return self.difference(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return np.array_equal(self._bits, other._bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.nonzero().tolist())

    # -- wire size ---------------------------------------------------------------

    @staticmethod
    def wire_bytes(num_bits: int) -> int:
        """Bytes needed to ship ``num_bits`` as a packed bitmap."""
        return (int(num_bits) + 7) // 8

    def packed_size(self) -> int:
        """Bytes needed to ship this bitmap on the wire."""
        return self.wire_bytes(len(self))

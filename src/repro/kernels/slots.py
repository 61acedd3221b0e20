"""Ordered scatters: apply a phase's update bins for a classified slot.

The slot side of :mod:`repro.kernels.csr`.  A phase collects
``(v, values)`` bins in merge order (a pull one per map of its walk, a
push one per machine); for a slot
:func:`repro.analysis.slotspec.classify_slot` matched, the concatenated
bins are applied with one scatter per shape instead of one Python call
per update.  Three invariants, mirroring the signal kernels':

* **Bit-identical state.**  Every written array ends bytewise equal to
  what the scalar loop leaves.  ``accumulate`` uses ``np.add.at``,
  which is unbuffered and visits the indices in order, so each vertex's
  sum is built by the same left-to-right ``+=`` sequence — the same
  float rounding, unlike ``np.bincount`` or a sort-and-``reduceat``.
  ``first_wins`` evaluates the slot's expressions once, on the first
  update per vertex; the folds scatter only the updates that beat the
  pre-state, with ``np.minimum.at`` / ``np.maximum.at``.
* **The scalar loop's ``changed``.**  Vertices come back in the order
  of their first successful application in bin order, which is the
  order the scalar loop's dict recorded them in (and the order the
  sync metering walks).
* **In place.**  The state arrays may be shared-memory views adopted by
  the process executor; a scatter writes through the store's own
  arrays and never rebinds a field.

Exactness is gated, not assumed: value arrays are converted bin by bin
to the dtype the scalar operation would have converted each value to,
and anything outside the gates — a value dtype that would promote the
field, a non-finite float under ``int(value)``, mixed-sign zeros under
a float fold, a NaN under ``accumulate`` — makes :func:`apply_slot`
return ``None`` *before* anything is written, and the caller runs the
scalar loop.

These live in their own table rather than the kernel registry: a
registered kernel has the signal-kernel signature ``(spec, state,
local, vertices, carried_in)``, which tools wrapping every registered
kernel rely on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.slotspec import (
    ACCUMULATE,
    FIRST_WINS,
    MAX_FOLD,
    MIN_FOLD,
    SlotSpec,
)

__all__ = ["apply_slot", "SLOT_APPLIES"]

Bins = Sequence[Tuple[np.ndarray, object]]

_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)


def _fits_int64(array: np.ndarray) -> bool:
    """Does every element convert to int64 the way ``int()`` and a
    scalar store do — a float truncating toward zero, as the C cast
    does — where the scalar form would not raise (``int(nan)``, an
    ``int(1e30)`` no int64 holds)?"""
    if array.dtype.kind == "f":
        return bool((np.abs(array) < 2.0**63).all())  # NaN fails too
    if array.dtype.kind == "u" and array.dtype.itemsize == 8:
        return not array.size or int(array.max()) <= np.iinfo(np.int64).max
    return True


def _numeric(array: np.ndarray) -> bool:
    return array.dtype.kind in "biuf" and array.dtype.itemsize <= 8


def _converted(values, cast: Optional[str]) -> Optional[np.ndarray]:
    """One bin's values under the slot's ``int()`` / ``float()``
    conversion, or None when they are no 1-D numeric array or the
    array form would not convert exactly as the builtin does."""
    if not (
        isinstance(values, np.ndarray) and values.ndim == 1
        and _numeric(values)
    ):
        return None
    if cast is None:
        return values
    if cast == "float":
        return values.astype(_FLOAT64, copy=False)
    return values.astype(_INT64, copy=False) if _fits_int64(values) else None


def _flatten(
    bins: Bins, cast: Optional[str], target: Optional[np.dtype] = None
) -> Optional[np.ndarray]:
    """The bins' values as one array, each bin converted on its own.

    With ``target`` (the written field's dtype) a bin must already
    promote to it — ``result_type(target, bin) == target``, i.e. the
    scalar ``field <op> value`` computes in the field's dtype — and is
    converted to it, so the parts concatenate without a second,
    possibly lossy promotion.  Without one the parts must agree on a
    dtype by themselves.
    """
    parts: List[np.ndarray] = []
    for _, values in bins:
        part = _converted(values, cast)
        if part is None:
            return None
        if target is None:
            if parts and part.dtype != parts[0].dtype:
                return None
        elif np.result_type(target, part.dtype) == target:
            part = part.astype(target, copy=False)
        else:
            return None
        parts.append(part)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _first_seen(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct vertices of ``v`` in first-occurrence order, with the
    position each first occurs at: one ``minimum.at`` of positions per
    vertex id, no sort."""
    at = np.arange(v.size)
    pos = np.full(int(v.max()) + 1 if v.size else 0, v.size)
    np.minimum.at(pos, v, at)
    first = at[pos[v] == at]
    return v[first], first


_NONE = np.zeros(0, dtype=np.int64)


def _storable(result: np.ndarray, target: np.dtype) -> bool:
    """Does ``array[idx] = result`` store what the scalar
    ``array[v] = result_i`` stores, element for element?  A float64
    cell takes any number and a bool cell its truth; an int64 cell is
    the conversion :func:`_fits_int64` describes."""
    return _numeric(result) and (target != _INT64 or _fits_int64(result))


def _apply_first_wins(
    spec: SlotSpec, state, v: np.ndarray, bins: Bins
) -> Optional[np.ndarray]:
    flat = {
        cast: _flatten(bins, cast) for cast in set(spec.casts.values())
    }
    if any(values is None for values in flat.values()):
        return None
    idx, pos = _first_seen(v)
    skip = np.broadcast_to(
        np.asarray(spec.exprs["guard"](state, None, idx)).astype(
            bool, copy=False
        ),
        idx.shape,
    )
    idx, pos = idx[~skip], pos[~skip]
    # every expression reads the pre-state (no write precedes a read of
    # its field — a classification rule), so evaluating all of them
    # before the first store keeps the gates ahead of any mutation
    stores = []
    for name in spec.fields:
        values = flat[spec.casts[name]][pos] if name in spec.casts else None
        result = np.asarray(spec.exprs[name](state, values, idx))
        array = getattr(state, name)
        if not _storable(result, array.dtype):
            return None
        stores.append((array, result))
    for array, result in stores:
        array[idx] = result
    return idx if spec.returns else _NONE


def _apply_fold(
    spec: SlotSpec, state, v: np.ndarray, bins: Bins
) -> Optional[np.ndarray]:
    (name,) = spec.fields
    array = getattr(state, name)
    values = _flatten(bins, None, array.dtype)
    if values is None:
        return None
    # The scalar loop stores a value only when it strictly beats the
    # cell, and until a vertex's first success its cell is the
    # pre-state: so its first success is its first hit below, and the
    # final cell is the extremum of its hits.  Scattering the hits alone
    # also keeps NaN (never a hit) and ties with the cell out.
    if spec.shape == MIN_FOLD:
        hit, scatter = values < array[v], np.minimum
    else:
        hit, scatter = values > array[v], np.maximum
    v, values = v[hit], values[hit]
    if array.dtype.kind == "f":
        # +0.0 == -0.0: which of two tied zeros a vertex keeps is the
        # scatter's tie-break, not necessarily the loop's first-wins
        zero_signs = np.signbit(values[values == 0])
        if zero_signs.any() and not zero_signs.all():
            return None
    scatter.at(array, v, values)
    return _first_seen(v)[0]


def _apply_accumulate(
    spec: SlotSpec, state, v: np.ndarray, bins: Bins
) -> Optional[np.ndarray]:
    (name,) = spec.fields
    array = getattr(state, name)
    values = _flatten(bins, spec.casts[name], array.dtype)
    if values is None:
        return None
    if values.dtype.kind == "f" and np.isnan(values).any():
        # where two NaNs meet in one vertex's sum, ``add.at`` keeps the
        # first one's sign bit and the loop's ``+=`` the last one's; a
        # NaN cell alone keeps its own under both, so the values decide
        return None
    np.add.at(array, v, values)
    return _first_seen(v)[0] if spec.returns else _NONE


#: shape -> scatter; the slot side's counterpart of the kernel registry
SLOT_APPLIES: Dict[str, Callable] = {
    FIRST_WINS: _apply_first_wins,
    MIN_FOLD: _apply_fold,
    MAX_FOLD: _apply_fold,
    ACCUMULATE: _apply_accumulate,
}


def apply_slot(spec: SlotSpec, state, bins: Bins) -> Optional[np.ndarray]:
    """Apply ``bins`` to ``state`` as ``spec``'s slot would, in place.

    ``bins`` is the phase's non-empty ``(v: int64[], values)`` list in
    merge order.  Returns the changed vertices in the scalar loop's
    order, or ``None`` — with ``state`` untouched — when the values are
    not arrays the scatter reproduces the scalar slot on exactly; the
    caller then runs the scalar loop.
    """
    v = bins[0][0] if len(bins) == 1 else np.concatenate([b[0] for b in bins])
    return SLOT_APPLIES[spec.shape](spec, state, v, bins)

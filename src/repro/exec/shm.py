"""Shared-memory publication for the process executor.

Three movement patterns, three costs:

* **Publish** (:meth:`ShmArena.publish`) — immutable arrays written
  once per topology generation (the CSR adjacency, the master map).
  Each key owns a dedicated segment; workers attach by name and build
  zero-copy views.
* **Adopt** (:meth:`ShmArena.adopt`) — long-lived *mutable* arrays
  (vertex state).  The array is copied into a fresh segment once and
  the caller receives a parent-side view over the same pages; from then
  on parent mutations are visible to attached workers with **zero**
  per-map republish cost.  Adopted segments are retired when the
  owning state store dies or the field is rebound.
* **Delta** (:class:`DeltaArena.write`) — per-map payload arrays
  (frontier index sets, candidate slices, dependency-bitmap slices,
  carried-data slices).  A double-buffered bump allocator: two
  preallocated segments alternate between map calls, grown
  geometrically (the old segment is retired only after a full flip, so
  in-flight references — including a crash-retry of the current map —
  stay valid).

Arrays travel in payloads as small placeholder tuples — :func:`ship`
walks a payload replacing every ndarray, :func:`unship` reverses it on
the worker side.  Tiny arrays ship inline as bytes (a pickle
round-trip beats a segment attach for anything under a page).

Lifecycle rules: the parent is the sole owner of every segment and
unlinks each one exactly once (at retire or close), so ``/dev/shm``
never accumulates orphans; unmapping is best-effort — a segment whose
pages are still exported through the buffer protocol stays mapped until
the export dies (``BufferError`` is tolerated, never fatal).  A NumPy
view built with ``ndarray(buffer=...)`` holds *no* such export, so that
guard does not cover adopted state: the process executor rebinds every
still-bound adopted field to a private copy before it closes the arena.

Python 3.11's ``SharedMemory`` registers every *attach* with the
resource tracker, which would double-unlink the parent's segments (and,
under fork, strip the parent's own registration from the shared tracker
process); workers therefore attach with registration suppressed — the
parent remains the sole owner and unlinks everything at close.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

__all__ = ["ShmArena", "DeltaArena", "ship", "unship", "attach_array"]

_SHM_TAG = "__repro_shm__"
_INLINE_TAG = "__repro_arr__"
# below this many bytes an array ships inline with the pickled payload
INLINE_LIMIT = 2048
# bump-allocation alignment inside a DeltaArena segment
_ALIGN = 64


def _unlink_quietly(block: shared_memory.SharedMemory) -> None:
    try:
        block.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _close_or_zombie(
    block: shared_memory.SharedMemory, zombies: List[Any]
) -> None:
    """Unmap a segment, tolerating live exports.

    A segment whose pages back a NumPy view that escaped to the caller
    (a result array) cannot be unmapped yet — ``mmap`` refuses with
    ``BufferError`` while exports exist.  Such blocks park on the
    zombie list (already unlinked, so no ``/dev/shm`` entry remains)
    and free themselves when the last view is garbage-collected.
    """
    try:
        block.close()
    except BufferError:
        zombies.append(block)


class ShmArena:
    """Named shared-memory segments owned by the parent process.

    ``publish`` (re)writes an immutable array under a stable key;
    ``adopt`` copies a mutable array once and hands back a live view;
    ``retire`` releases one key; ``close`` releases everything.  The
    arena is the single owner of its segments — every segment is
    unlinked exactly once.
    """

    def __init__(self) -> None:
        self._blocks: Dict[str, shared_memory.SharedMemory] = {}
        self._zombies: List[shared_memory.SharedMemory] = []
        #: cumulative bytes memcpy'd into segments (publish + adopt)
        self.published_bytes = 0
        #: current capacity of live segments
        self.allocated_bytes = 0

    def _alloc(self, key: str, nbytes: int) -> shared_memory.SharedMemory:
        block = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        self._blocks[key] = block
        self.allocated_bytes += block.size
        return block

    def publish(self, key: str, array: np.ndarray) -> tuple:
        """Copy ``array`` into shared memory under ``key``.

        Re-publishing a key reuses its segment while the capacity fits
        and transparently replaces it (new name) when it does not.
        """
        array = np.ascontiguousarray(array)
        block = self._blocks.get(key)
        if block is not None and block.size < array.nbytes:
            self.retire(key)
            block = None
        if block is None:
            block = self._alloc(key, array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        view[...] = array
        self.published_bytes += array.nbytes
        return (_SHM_TAG, block.name, array.dtype.str, array.shape, 0)

    def adopt(self, key: str, array: np.ndarray):
        """Move ``array`` into a fresh segment; return ``(view, ref)``.

        The returned view aliases the shared pages: parent writes are
        immediately visible to every attached worker with no further
        copies.  Each adoption gets its own segment so earlier views
        (e.g. result arrays from a previous run) are never overwritten.
        """
        array = np.ascontiguousarray(array)
        if key in self._blocks:
            self.retire(key)
        block = self._alloc(key, array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        view[...] = array
        self.published_bytes += array.nbytes
        return view, (_SHM_TAG, block.name, array.dtype.str, array.shape, 0)

    def retire(self, key: str) -> None:
        """Unlink and (best-effort) unmap one key's segment."""
        block = self._blocks.pop(key, None)
        if block is None:
            return
        self.allocated_bytes -= block.size
        _unlink_quietly(block)
        _close_or_zombie(block, self._zombies)

    def retire_many(self, keys: Iterable[str]) -> None:
        for key in list(keys):
            self.retire(key)

    def close(self) -> None:
        for key in list(self._blocks):
            self.retire(key)
        still: List[shared_memory.SharedMemory] = []
        for block in self._zombies:
            _close_or_zombie(block, still)
        self._zombies = still


class DeltaArena:
    """Double-buffered bump allocator for per-map payload arrays.

    ``begin()`` flips the active buffer and resets its cursor; every
    subsequent ``write`` appends into the active segment and returns a
    ``(name, offset)`` reference.  When a map's payload outgrows the
    segment, a new one is allocated at twice the size; the outgrown
    segment is parked and retired only when its buffer slot next
    becomes active again — by then no in-flight map (not even a
    crash-retry of the previous one) can still reference it.
    """

    def __init__(
        self,
        initial_bytes: int = 1 << 20,
        on_grow: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.initial_bytes = int(initial_bytes)
        self.on_grow = on_grow
        self._blocks: List[Optional[shared_memory.SharedMemory]] = [None, None]
        self._parked: List[List[shared_memory.SharedMemory]] = [[], []]
        self._zombies: List[shared_memory.SharedMemory] = []
        self._active = 0
        self._offset = 0
        #: number of geometric growths (first allocation excluded)
        self.grow_count = 0
        #: cumulative bytes written across all maps
        self.written_bytes = 0

    @property
    def capacity(self) -> int:
        """Current capacity of the active buffer (0 before first use)."""
        block = self._blocks[self._active]
        return 0 if block is None else block.size

    def begin(self) -> None:
        """Flip buffers for a new map call."""
        self._active ^= 1
        self._offset = 0
        for block in self._parked[self._active]:
            _unlink_quietly(block)
            _close_or_zombie(block, self._zombies)
        self._parked[self._active] = []

    def _grow(self, need: int) -> shared_memory.SharedMemory:
        old = self._blocks[self._active]
        size = max(self.initial_bytes, need * 2)
        if old is not None:
            size = max(size, old.size * 2)
            self._parked[self._active].append(old)
            self.grow_count += 1
        block = shared_memory.SharedMemory(create=True, size=size)
        self._blocks[self._active] = block
        if self.on_grow is not None:
            self.on_grow(block.size)
        return block

    def write(self, array: np.ndarray) -> tuple:
        """Bump-allocate ``array`` into the active buffer; return a ref."""
        array = np.ascontiguousarray(array)
        nbytes = int(array.nbytes)
        offset = (self._offset + _ALIGN - 1) & ~(_ALIGN - 1)
        block = self._blocks[self._active]
        if block is None or offset + nbytes > block.size:
            block = self._grow(offset + nbytes)
            offset = 0
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=block.buf, offset=offset
        )
        view[...] = array
        self._offset = offset + nbytes
        self.written_bytes += nbytes
        return (_SHM_TAG, block.name, array.dtype.str, array.shape, offset)

    def close(self) -> None:
        for slot in (0, 1):
            block = self._blocks[slot]
            if block is not None:
                _unlink_quietly(block)
                _close_or_zombie(block, self._zombies)
                self._blocks[slot] = None
            for parked in self._parked[slot]:
                _unlink_quietly(parked)
                _close_or_zombie(parked, self._zombies)
            self._parked[slot] = []
        still: List[shared_memory.SharedMemory] = []
        for block in self._zombies:
            _close_or_zombie(block, still)
        self._zombies = still


def ship(value: Any, arena) -> Any:
    """Replace every ndarray in ``value`` with a shipped placeholder.

    Recurses through dicts, lists, and tuples; ``arena`` is anything
    with a ``write(array) -> ref`` method (normally a
    :class:`DeltaArena` between ``begin()`` and the map dispatch).
    """
    if isinstance(value, np.ndarray):
        if value.nbytes <= INLINE_LIMIT:
            arr = np.ascontiguousarray(value)
            return (_INLINE_TAG, arr.dtype.str, arr.shape, arr.tobytes())
        return arena.write(value)
    if isinstance(value, dict):
        return {k: ship(v, arena) for k, v in value.items()}
    if isinstance(value, list):
        return [ship(v, arena) for v in value]
    if isinstance(value, tuple):
        return tuple(ship(v, arena) for v in value)
    return value


# -- worker side -----------------------------------------------------------

# attached segments, cached per name for the life of the worker
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
# past this many, a new attach first drops the ones no view reads
_ATTACH_LIMIT = 512


def attach_array(
    name: str, dtype: str, shape: tuple, offset: int = 0
) -> np.ndarray:
    """Zero-copy view of a published array inside a worker process."""
    block = _ATTACHED.get(name)
    if block is None:
        if len(_ATTACHED) > _ATTACH_LIMIT:
            # stale names from retired segments; drop what can be
            # dropped (the parent already unlinked the files; blocks
            # with live exports survive until their views die)
            for stale, old in list(_ATTACHED.items()):
                try:
                    old.close()
                except BufferError:
                    continue
                del _ATTACHED[stale]
        # suppress the 3.11 attach-side tracker registration: with a
        # forked worker the tracker process is shared, so registering
        # (then unregistering at exit) would strip the parent's claim
        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            block = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig_register
        _ATTACHED[name] = block
    # frombuffer, not ndarray(buffer=...): the view holds an export of
    # the block's buffer, so the purge above cannot unmap a segment a
    # live view (the current topology, state or payload) still reads
    return np.frombuffer(
        block.buf, dtype=np.dtype(dtype), count=int(np.prod(shape)),
        offset=offset,
    ).reshape(shape)


def unship(value: Any) -> Any:
    """Reverse :func:`ship` on the worker side."""
    if isinstance(value, tuple) and value:
        if value[0] == _SHM_TAG:
            _, name, dtype, shape, offset = value
            return attach_array(name, dtype, shape, offset)
        if value[0] == _INLINE_TAG:
            _, dtype, shape, raw = value
            return np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(shape)
        return tuple(unship(v) for v in value)
    if isinstance(value, dict):
        return {k: unship(v) for k, v in value.items()}
    if isinstance(value, list):
        return [unship(v) for v in value]
    return value

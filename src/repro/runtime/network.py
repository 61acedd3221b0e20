"""Simulated interconnect with per-pair byte accounting.

Stands in for the paper's MPI/RDMA fabric.  Engines hand every remote
transfer to :meth:`SimulatedNetwork.send`, or a phase's ordered list of
them to :meth:`SimulatedNetwork.send_many`; the network records bytes
and message counts per (source, destination, tag) so the communication
tables can be regenerated and the cost model can price transfers.
Local (same-machine) transfers are free and not recorded, matching how
the paper counts communication volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import EngineError
from repro.runtime.counters import COMM_TAGS, Counters

__all__ = ["SimulatedNetwork", "DeliveryOutcome"]


def _within(values: np.ndarray, bound: int) -> bool:
    """All of an int64 array in ``[0, bound)``?  (As uint64, a negative
    value is above any bound: one reduction.)"""
    return not values.size or int(values.view(np.uint64).max()) < bound


@dataclass
class DeliveryOutcome:
    """What happened to one transfer on a faulty fabric.

    Returned by a delivery hook (see
    :class:`~repro.fault.injector.FaultController`): ``attempts`` counts
    transmissions until the message got through (retransmissions after
    drops), ``extra_copies`` counts spurious duplicate deliveries, and
    ``delay`` is simulated time lost to in-flight delay plus
    retransmission backoff.  The default outcome is a clean delivery.
    """

    attempts: int = 1
    extra_copies: int = 0
    delay: float = 0.0

    @property
    def transmissions(self) -> int:
        return self.attempts + self.extra_copies


class SimulatedNetwork:
    """Byte/message accounting fabric between simulated machines.

    With ``trace=True`` every remote transfer is additionally appended
    to :attr:`log` as a ``(src, dst, tag, bytes)`` tuple (bounded by
    ``trace_limit``) — a debugging aid for protocol work, off by
    default to keep long runs cheap.

    A :attr:`delivery_hook` — ``(src, dst, tag, nbytes) ->
    DeliveryOutcome | None`` — lets a fault injector intercept every
    transfer: retransmissions and duplicate copies are charged as extra
    bytes/messages, delays as penalty time on the counters.  The hook
    may raise to model an unrecoverable delivery failure.
    """

    def __init__(
        self,
        num_machines: int,
        counters: Counters | None = None,
        trace: bool = False,
        trace_limit: int = 100_000,
    ) -> None:
        if num_machines <= 0:
            raise EngineError("a network needs at least one machine")
        self.num_machines = num_machines
        self.counters = counters if counters is not None else Counters(num_machines)
        # traffic[tag][src, dst] = bytes: per-tag views of one
        # (tag, src, dst) array, as are the message counts
        shape = (len(COMM_TAGS), num_machines, num_machines)
        self._bytes = np.zeros(shape, dtype=np.int64)
        self._messages = np.zeros(shape, dtype=np.int64)
        self.traffic: Dict[str, np.ndarray] = dict(zip(COMM_TAGS, self._bytes))
        self.message_counts: Dict[str, np.ndarray] = dict(
            zip(COMM_TAGS, self._messages)
        )
        self.trace = trace
        self.trace_limit = trace_limit
        self.log: list[Tuple[int, int, str, int]] = []
        self.dropped_log_entries = 0
        self.delivery_hook: Optional[
            Callable[[int, int, str, int], Optional[DeliveryOutcome]]
        ] = None

    def send(
        self, src: int, dst: int, tag: str, nbytes: int, messages: int = 1
    ) -> None:
        """Record a transfer.  Same-machine transfers are free."""
        if tag not in self.traffic:
            raise EngineError(f"unknown communication tag {tag!r}")
        if not (0 <= src < self.num_machines and 0 <= dst < self.num_machines):
            raise EngineError(f"machine out of range: {src} -> {dst}")
        if nbytes < 0:
            raise EngineError("cannot send a negative number of bytes")
        if src == dst:
            return
        if self.delivery_hook is not None:
            outcome = self.delivery_hook(src, dst, tag, nbytes)
            if outcome is not None and outcome.transmissions > 1:
                # retransmissions and duplicates repeat the payload
                extra = outcome.transmissions - 1
                nbytes = int(nbytes) * outcome.transmissions
                messages = int(messages) + extra
            if outcome is not None and outcome.delay > 0.0:
                self.counters.add_penalty(outcome.delay)
        self.traffic[tag][src, dst] += int(nbytes)
        self.message_counts[tag][src, dst] += int(messages)
        self.counters.add_bytes(tag, nbytes, messages)
        if self.trace:
            if len(self.log) < self.trace_limit:
                self.log.append((src, dst, tag, int(nbytes)))
            else:
                self.dropped_log_entries += 1

    @property
    def per_message(self) -> bool:
        """Does anything observe single messages (a delivery hook, the
        trace log)?  Only then does a message list's order matter."""
        return self.delivery_hook is not None or self.trace

    def send_many(self, src, dst, tag, nbytes) -> None:
        """Record an ordered list of transfers, one message each:
        aligned integer arrays, ``tag`` one tag name or per message a
        position in ``COMM_TAGS``, checked as a whole first.  A delivery
        hook or the trace log gets one :meth:`send` per message in list
        order; otherwise the list is booked as one sum per ``(tag, src,
        dst)``, which leaves the same counters and matrices."""
        if isinstance(tag, str):
            if tag not in self.traffic:
                raise EngineError(f"unknown communication tag {tag!r}")
            tag = np.full(np.shape(src), COMM_TAGS.index(tag))
        src, dst, codes, nbytes = (
            np.asarray(a, dtype=np.int64) for a in (src, dst, tag, nbytes)
        )
        if {a.shape for a in (src, dst, codes, nbytes)} != {(src.size,)}:
            raise EngineError("a message list needs aligned 1-D arrays")
        p = self.num_machines
        if not _within(codes, len(COMM_TAGS)):
            raise EngineError("unknown communication tag in the list")
        if not (_within(src, p) and _within(dst, p)):
            raise EngineError("machine out of range in a message list")
        if nbytes.size and nbytes.min() < 0:
            raise EngineError("cannot send a negative number of bytes")
        if self.per_message:
            for s, d, c, b in zip(
                src.tolist(), dst.tolist(), codes.tolist(), nbytes.tolist()
            ):
                self.send(s, d, COMM_TAGS[c], b)
            return
        # one row of p * p cells per tag
        key = src * p + dst
        key += codes * (p * p)
        size = self._bytes.size
        messages = np.bincount(key, minlength=size)
        # float64 sums of integers are exact below 2**53 bytes
        payload = np.bincount(key, weights=nbytes, minlength=size)
        self._add(messages, payload.astype(np.int64))

    def book(self, messages: np.ndarray, nbytes: np.ndarray) -> None:
        """Book messages as sums: ``(tag, src, dst)`` message counts and
        their byte totals, tags in ``COMM_TAGS`` order — what
        :meth:`send_many` books for a list of them when nothing observes
        single messages (so it refuses when something does).  Cells on
        the diagonal are local, hence free."""
        if self.per_message:
            raise EngineError("single messages are observed: send a list")
        if {messages.shape, nbytes.shape} != {self._messages.shape}:
            raise EngineError("message sums must be (tag, src, dst) arrays")
        if messages.min() < 0 or nbytes.min() < 0:
            raise EngineError("cannot book a negative sum")
        self._add(messages.astype(np.int64), nbytes.astype(np.int64))

    def _add(self, messages: np.ndarray, payload: np.ndarray) -> None:
        """Add sums the caller hands over (they are changed): local
        cells, every (p + 1)-th of a tag's p * p, are dropped first."""
        rows = len(COMM_TAGS)
        messages = messages.reshape(rows, -1)
        payload = payload.reshape(rows, -1)
        messages[:, ::self.num_machines + 1] = 0
        payload[:, ::self.num_machines + 1] = 0
        self._messages += messages.reshape(self._messages.shape)
        self._bytes += payload.reshape(self._bytes.shape)
        for tag, count, volume in zip(
            COMM_TAGS, messages.sum(axis=1).tolist(),
            payload.sum(axis=1).tolist(),
        ):
            if count:
                self.counters.add_bytes(tag, volume, count)

    # -- queries -----------------------------------------------------------

    def bytes_sent(self, tag: str | None = None) -> int:
        if tag is not None:
            return int(self.traffic[tag].sum())
        return int(sum(matrix.sum() for matrix in self.traffic.values()))

    def bytes_between(self, src: int, dst: int) -> int:
        return int(sum(matrix[src, dst] for matrix in self.traffic.values()))

    def per_machine_sent(self, tag: str | None = None) -> np.ndarray:
        """Bytes sent by each machine (row sums)."""
        if tag is not None:
            return self.traffic[tag].sum(axis=1)
        return sum(matrix.sum(axis=1) for matrix in self.traffic.values())

    def per_machine_received(self, tag: str | None = None) -> np.ndarray:
        if tag is not None:
            return self.traffic[tag].sum(axis=0)
        return sum(matrix.sum(axis=0) for matrix in self.traffic.values())

    def busiest_pair(self) -> Tuple[int, int, int]:
        """(src, dst, bytes) of the most loaded link."""
        total = sum(self.traffic.values())
        idx = int(np.argmax(total))
        src, dst = divmod(idx, self.num_machines)
        return src, dst, int(total[src, dst])

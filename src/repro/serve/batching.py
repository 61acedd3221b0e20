"""Request queue with a dedup batcher and admission control.

The :class:`Broker` is the heart of the serving layer: a bounded,
thread-safe queue of :class:`QueryRequest` objects, one logical lane
per graph.  A worker draining a lane does not take one request — it
takes a *batch*: the head of the lane plus every queued request with
the same **dedup key** (the full :class:`~repro.api.RunConfig`
digest).  Identical requests ride the head's execution for free; a
batch always executes its head's config, so replaying that config
through a direct :meth:`Session.run` reproduces the served result
digest bit for bit, which is exactly what the serve-smoke CI gate does.
Requests that differ in any field — a BFS source included — run
separately: ``Session.run`` traverses a multi-source config's roots one
after another, so merging them would save no work.

Admission control lives at :meth:`Broker.submit`: when the queue holds
``max_depth`` requests the submit raises :class:`QueueFull` (the HTTP
layer turns that into 429 + Retry-After) instead of letting latency
grow without bound.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from concurrent.futures import Future

from repro.api import RunConfig
from repro.errors import ServeError

__all__ = ["Broker", "BrokerClosed", "QueryRequest", "QueueFull"]

_ids = itertools.count(1)


class QueueFull(ServeError):
    """The bounded request queue is at capacity (HTTP 429)."""

    def __init__(self, depth: int, retry_after: float = 1.0) -> None:
        super().__init__(
            f"request queue is full ({depth} queued); retry later"
        )
        self.depth = depth
        self.retry_after = retry_after


class BrokerClosed(ServeError):
    """The broker stopped accepting requests (drain in progress, 503)."""


@dataclass
class QueryRequest:
    """One admitted query waiting for (or riding) an engine run."""

    graph: str
    config: RunConfig
    id: int = field(default_factory=lambda: next(_ids))
    future: "Future[Dict[str, object]]" = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    #: ``perf_counter()`` time the caller stops waiting; None: never
    deadline: Optional[float] = None
    cancelled: bool = False

    def __post_init__(self) -> None:
        self.dedup_key: str = self.config.digest()

    @property
    def queue_wait(self) -> float:
        return time.perf_counter() - self.enqueued_at


class Broker:
    """Bounded multi-lane request queue with dedup-batching dequeue."""

    def __init__(self, max_depth: int = 64, max_batch: int = 64) -> None:
        if max_depth < 1:
            raise ServeError(f"max_depth must be >= 1, got {max_depth}")
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.max_depth = max_depth
        self.max_batch = max_batch
        self._cond = threading.Condition()
        self._lanes: Dict[str, Deque[QueryRequest]] = {}
        self._depth = 0
        self._closed = False

    # -- submission (event-loop side) -------------------------------------

    def submit(self, request: QueryRequest) -> None:
        """Admit a request, or refuse with :class:`QueueFull` /
        :class:`BrokerClosed`."""
        with self._cond:
            if self._closed:
                raise BrokerClosed("broker is draining; not accepting work")
            if self._depth >= self.max_depth:
                raise QueueFull(self._depth)
            self._lanes.setdefault(request.graph, deque()).append(request)
            self._depth += 1
            self._cond.notify_all()

    def depth(self) -> int:
        with self._cond:
            return self._depth

    def close(self) -> None:
        """Stop admitting; queued work remains for workers to drain."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- dequeue (worker side) --------------------------------------------

    def next_batch(
        self, graph: str, timeout: Optional[float] = None
    ) -> Optional[List[QueryRequest]]:
        """Block until the lane has work, then take one batch.

        Returns ``None`` once the broker is closed and the lane is
        empty — the worker's signal to exit.  ``timeout`` bounds one
        wait slice (used by tests; workers pass ``None`` and rely on
        close() waking them).
        """
        with self._cond:
            while True:
                lane = self._lanes.get(graph)
                while lane and lane[0].cancelled:
                    lane.popleft()
                    self._depth -= 1
                if lane:
                    return self._form_batch(lane)
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None

    def _form_batch(self, lane: Deque[QueryRequest]) -> List[QueryRequest]:
        head = lane.popleft()
        self._depth -= 1
        batch = [head]
        kept: Deque[QueryRequest] = deque()
        while lane:
            req = lane.popleft()
            if req.cancelled:
                self._depth -= 1
                continue
            same = req.dedup_key == head.dedup_key
            if same and len(batch) < self.max_batch:
                batch.append(req)
                self._depth -= 1
            else:
                kept.append(req)
        lane.extend(kept)
        return batch

"""Request queue with a batching coalescer and admission control.

The :class:`Broker` is the heart of the serving layer: a bounded,
thread-safe queue of :class:`QueryRequest` objects, one logical lane
per graph.  A worker draining a lane does not take one request — it
takes a *batch*:

* the head of the lane, plus
* every queued request with the same **batch key** (the request's
  :class:`~repro.api.RunConfig` digest with ``sources`` stripped) —
  these are same-graph/same-config BFS/SSSP queries that merge into
  one multi-source batched run, and
* every queued request with the same **dedup key** (the full config
  digest) — identical requests that ride the same execution for free.

Merged sources keep arrival order and drop duplicates, so the executed
config is itself an ordinary :class:`~repro.api.RunConfig` — replaying
it through a direct :meth:`Session.run` reproduces the served result
digest bit for bit, which is exactly what the serve-smoke CI gate does.

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
from typing import Deque, Dict, List, Optional, Tuple

from concurrent.futures import Future

from repro.api import SOURCED_ALGORITHMS, RunConfig
from repro.errors import ServeError

__all__ = ["Broker", "BrokerClosed", "QueryRequest", "QueueFull", "plan_batch"]

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
        # batchable iff the request pins explicit sources on a sourced
        # algorithm — then same-base-config requests merge source lists
        if (
            self.config.algorithm in SOURCED_ALGORITHMS
            and self.config.sources is not None
        ):
            self.batch_key: Optional[str] = self.config.replace(
                sources=None
            ).digest()
        else:
            self.batch_key = None

    @property
    def queue_wait(self) -> float:
        return time.perf_counter() - self.enqueued_at


def plan_batch(batch: List[QueryRequest]) -> Tuple[RunConfig, bool]:
    """The single config a batch executes as, and whether it coalesced.

    Merged sources keep first-arrival order and drop duplicates; a
    batch of identical requests (pure dedup) or a singleton executes
    the head request's config unchanged.
    """
    head = batch[0]
    if head.batch_key is None or len(batch) == 1:
        return head.config, False
    merged: List[int] = []
    seen = set()
    for req in batch:
        for source in req.config.sources:
            if source not in seen:
                seen.add(source)
                merged.append(source)
    config = head.config.replace(sources=tuple(merged))
    return config, config.digest() != head.dedup_key


class Broker:
    """Bounded multi-lane request queue with batch-forming dequeue."""

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
            mergeable = req.dedup_key == head.dedup_key or (
                head.batch_key is not None
                and req.batch_key == head.batch_key
            )
            if mergeable and len(batch) < self.max_batch:
                batch.append(req)
                self._depth -= 1
            else:
                kept.append(req)
        lane.extend(kept)
        return batch

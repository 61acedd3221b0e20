"""Spans recorded from outside the program.

:class:`Recorder` wraps the public entry points of each layer (the
layers are the ``repro`` packages) for the duration of a ``with`` block
and keeps one span per call in memory: name, layer, start, end, parent.
Nothing under ``src/`` knows about it; when the block ends every
attribute is put back.  A layer's *self time* is its spans' durations
minus the part covered by their child spans, so the layers' self times
add up to the traced seconds exactly.

The recorder is single-threaded by design: every workload that uses it
drives the program from one thread, and worker *processes* never see
the patches because kernels are only wrapped under the serial executor.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "Span"]


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Recorder:
    """Wrap layer entry points, record spans, restore on exit."""

    def __init__(self, kernels: bool = True) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        #: the Partition objects ``Partitioner.partition`` returned
        self.partitions: List[Any] = []
        #: ``RefreshStats`` returned by ``refresh_partition``
        self.refreshes: List[Any] = []
        self._kernels = kernels
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str,
              after: Optional[Callable[[Any, tuple], None]] = None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, perf_counter(), 0.0,
                        stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_seconds += span.seconds
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, name: str, layer: str,
               after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        raw = vars(owner)[attr] if had_own else original
        setattr(owner, attr, self._wrap(original, name, layer, after))

        def undo() -> None:
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def __enter__(self) -> "Recorder":
        import repro.api as api
        import repro.bench.harness as harness
        import repro.engine as engine_pkg
        import repro.exec.base as exec_base
        import repro.partition as partition_pkg
        from repro.algorithms.incremental import IncrementalBFS, IncrementalCC
        from repro.engine.base import BaseEngine
        from repro.exec.process import ProcessPoolExecutor
        from repro.partition.base import Partitioner

        self._patch(api.Session, "run", "Session.run", "api")
        self._patch(api.Session, "mutate", "Session.mutate", "graph")
        self._patch(api, "make_engine", "make_engine", "engine")
        self._patch(
            api, "refresh_partition", "refresh_partition", "partition",
            after=lambda result, args: self.refreshes.append(result[1]),
        )
        for cls in vars(partition_pkg).values():
            if (isinstance(cls, type) and issubclass(cls, Partitioner)
                    and "partition" in vars(cls)):
                self._patch(
                    cls, "partition", "Partitioner.partition", "partition",
                    after=lambda result, args: self.partitions.append(result),
                )
        engines = [BaseEngine] + [
            cls for cls in vars(engine_pkg).values()
            if isinstance(cls, type) and issubclass(cls, BaseEngine)
            and cls is not BaseEngine
        ]
        for cls in engines:  # each engine overrides some of these
            for attr, layer in (("pull", "engine"), ("push", "engine"),
                                ("sync_state", "engine"),
                                ("ensure_analyzed", "analysis"),
                                ("execution_time", "runtime")):
                if attr in vars(cls):
                    self._patch(cls, attr, attr, layer)
        self._patch(exec_base.Executor, "bind", "Executor.bind", "exec")
        for cls in (exec_base.SerialExecutor, ProcessPoolExecutor):
            self._patch(cls, "map_machines", "map_machines", "exec")
        for cls in (IncrementalBFS, IncrementalCC):
            self._patch(cls, "refresh",
                        f"{cls.__name__}.refresh", "algorithms")

        # the harness resolves the runner through get_spec at call time
        original_get_spec = harness.get_spec

        def get_spec(name: str):
            spec = original_get_spec(name)
            return dataclasses.replace(
                spec, runner=self._wrap(spec.runner, "runner", "algorithms")
            )

        harness.get_spec = get_spec
        self._undo.append(
            lambda: setattr(harness, "get_spec", original_get_spec)
        )
        if self._kernels:
            self._patch_kernels()
        return self

    def _patch_kernels(self) -> None:
        from repro.kernels import (
            available_kernels,
            get_kernel,
            register_kernel,
        )

        def tally(batch, args) -> None:
            self.count("kernels.calls")
            self.count("kernels.vertices", float(args[3].size))
            self.count("kernels.edges", float(batch.edges.sum()))

        for kind in available_kernels():
            original = get_kernel(kind)
            register_kernel(kind)(
                self._wrap(original, f"kernel:{kind}", "kernels", tally)
            )
            self._undo.append(
                lambda kind=kind, original=original:
                register_kernel(kind)(original)
            )

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading -----------------------------------------------------------

    def mark(self) -> Tuple[int, Dict[str, float]]:
        """Position to hand to :meth:`since` for one operation's share."""
        return len(self.spans), dict(self.counts)

    def since(self, mark: Tuple[int, Dict[str, float]]):
        """Spans and count deltas recorded after ``mark``."""
        start, counts = mark
        delta = {
            key: value - counts.get(key, 0.0)
            for key, value in self.counts.items()
        }
        return self.spans[start:], delta

    def dump(self) -> List[Dict[str, Any]]:
        """JSON-ready spans (times relative to the first span)."""
        if not self.spans:
            return []
        zero = self.spans[0].start
        return [
            {
                "id": i,
                "name": s.name,
                "layer": s.layer,
                "start": s.start - zero,
                "end": s.end - zero,
                "parent": s.parent,
                "self": s.self_seconds,
            }
            for i, s in enumerate(self.spans)
        ]


def inclusive(spans: List[Span], name: str) -> float:
    """Total seconds of the spans called ``name``.

    No wrapped entry point re-enters itself, so same-named spans never
    nest and the sum counts no second twice.
    """
    return sum(s.seconds for s in spans if s.name == name)


def self_time(spans: List[Span], name: str) -> float:
    return sum(s.self_seconds for s in spans if s.name == name)


def calls(spans: List[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def layer_self(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per layer; the values sum to the root spans' time."""
    out: Dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.self_seconds
    return out

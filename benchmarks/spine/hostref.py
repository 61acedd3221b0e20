"""Host-speed reference and the statistics every spine number uses.

The hosts this benchmark runs on drift: the same deterministic
``Session.run`` takes 0.77 s in one half-minute and 1.02 s in the next
while a neighbour is busy, so the median of ten back-to-back runs moves
by 15-25 % between invocations.  No statistic over one invocation
removes that, because the whole invocation sits inside one slow or fast
period.  The spine therefore measures the host beside the program: a
fixed interpreter-bound loop (:func:`reference`) runs before and after
every timed operation, and each operation's wall seconds are scaled by
``NOMINAL_S / reference seconds``.  A reported second is a second on a
host that runs one reference slice in ``NOMINAL_S``; ``bench.host_speed``
reports the factor so raw wall seconds can be recovered.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, List, Sequence, Tuple

#: seconds of one reference slice on the host the spine was first
#: recorded on
NOMINAL_S = 0.0035

_SLICES = 5
_WARMUP_SLICES = 3
_SLICE_ITERATIONS = 60_000


def _slice() -> float:
    t0 = time.perf_counter()
    table = {}
    total = 0
    for i in range(_SLICE_ITERATIONS):
        total += i * i
        if i & 7 == 0:
            table[i] = total
    return time.perf_counter() - t0


def reference() -> float:
    """Median wall seconds of a few short interpreter-bound slices.

    The median of short slices follows the sustained speed of the host
    and ignores the 20-50 ms stalls that doubled a single 20 ms loop
    while adding only a few percent to a 0.8 s operation.  The first
    slices after this process has been waiting (on the server, on pool
    workers) run on a core that has clocked down and read up to 1.6x
    slow, so a few are run and dropped first.
    """
    for _ in range(_WARMUP_SLICES):
        _slice()
    return statistics.median(_slice() for _ in range(_SLICES))


def speed(ref_before: float, ref_after: float) -> float:
    """Host speed around one operation (1.0 = the nominal host)."""
    return NOMINAL_S / (0.5 * (ref_before + ref_after))


def timed(op: Callable[[], object]) -> Tuple[object, float, float]:
    """Run ``op`` between two reference loops.

    Returns ``(result, normalised seconds, host speed)``.
    """
    before = reference()
    t0 = time.perf_counter()
    result = op()
    wall = time.perf_counter() - t0
    factor = speed(before, reference())
    return result, wall * factor, factor


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def tail(values: Sequence[float]) -> float:
    """The highest percentile, at most p95, with ten samples beyond it.

    A sample too small to have ten values beyond any percentile above
    the median supports no tail figure; the tail is then the median.
    """
    n = len(values)
    if n < 20:
        return median(values)
    return percentile(values, min(0.95, 1.0 - 10.0 / n))


def quartile_spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median (0 if n < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0

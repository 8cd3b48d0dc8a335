"""Summary statistics shared by the end-to-end benchmark and its comparer.

Every timing is reported as a median plus the highest percentile the sample
supports: a percentile is only meaningful when at least ``MIN_BEYOND``
samples lie beyond it, so a run with 40 requests reports no p95 tail of its
own.  Quartiles use :func:`statistics.quantiles` (the exclusive method), the
same rule the two-set comparison applies.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence

#: Samples that must lie beyond a percentile before it is reported as a tail.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank ``q``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def supported_tail(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with ``min_beyond`` samples past it."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(n, q) >= min_beyond:
            return q
    return None


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]``; a single sample is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return [q1, med, q3]


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median (0 for a single sample)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return abs(q3 - q1) / abs(med)


def window_rates(completion_times: Sequence[float], window: int) -> List[float]:
    """Completions per second over consecutive windows of ``window`` completions.

    ``completion_times`` are absolute timestamps; each window's rate is
    ``window`` over the time from the completion before it to its last one,
    so back-to-back windows tile the run without overlap.
    """
    times = sorted(completion_times)
    rates = []
    for end in range(window, len(times), window):
        elapsed = times[end] - times[end - window]
        if elapsed > 0:
            rates.append(window / elapsed)
    return rates

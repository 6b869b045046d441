"""Order statistics and span arithmetic used by the benchmark.

Everything here is pure: lists of numbers in, numbers out, so the
percentile, tail-selection and self-time rules can be tested on their own.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

#: A tail percentile is reported only where this many samples lie beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of no samples")
    return statistics.fmean(values)


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``.  With ``n`` samples the
    value is the one at rank ``n - beyond`` (1-based, ascending) and the
    percentile is ``100 * (n - beyond) / n``.  With too few samples the
    smallest sample is returned and ``samples_beyond`` says how many lie
    above it, so the caller can state that the tail is under-sampled.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, n - beyond)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    inside = [(max(s, start), min(e, end)) for s, e in children if e > start and s < end]
    return (end - start) - covered(inside)

"""Percentiles with the sample-count rule the benchmark reports by."""

from __future__ import annotations

import math

MIN_TAIL = 10  # a percentile is reported only with this many samples beyond it


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    return xs[max(1, math.ceil(q / 100 * len(xs))) - 1]


def beyond(n: int, q: float) -> int:
    """Samples ranked strictly above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100 * n))


def min_samples(q: float) -> int:
    """Fewest samples for which the q-th percentile has MIN_TAIL beyond it."""
    n = 1
    while beyond(n, q) < MIN_TAIL:
        n += 1
    return n

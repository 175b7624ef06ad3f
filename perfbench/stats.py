"""Order statistics of item latencies."""

from __future__ import annotations

import math

# Candidates for the reported tail percentile, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method) of a sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    rank = (p / 100.0) * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (rank - lo) * (xs[hi] - xs[lo])


def samples_beyond(n: int, p: float) -> int:
    """Number of the n samples that lie above the p-th percentile."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def min_samples(p: float) -> int:
    """Smallest sample count for which the p-th percentile may be reported."""
    n = 1
    while samples_beyond(n, p) < MIN_BEYOND:
        n += 1
    return n

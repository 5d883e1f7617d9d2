"""Order statistics used by the benchmark report.

Percentiles interpolate linearly between closest ranks (the "inclusive"
method). A tail is reported at the highest percentile that still leaves at
least ``MIN_BEYOND`` samples above it, so a quoted p99 always rests on at
least ten slower samples.
"""

from __future__ import annotations

import statistics

#: Candidate tail percentiles, highest first.
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples a tail percentile must leave beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 <= q <= 100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return int(n * (100 - q) / 100 + 1e-9)


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples are enough to quote the ``q``-th percentile."""
    return samples_beyond(n, q) >= MIN_BEYOND


def tail_percentile(n: int) -> float | None:
    """Highest percentile in :data:`TAILS` that ``n`` samples support."""
    for q in TAILS:
        if supports(n, q):
            return q
    return None


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median, with the quartiles of ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2

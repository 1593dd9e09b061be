"""Statistics helpers of the benchmark: order statistics and span self time.

Kept free of I/O so test_stats.py can pin them down.
"""
import math
import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as statistics.quantiles
    (n=4, exclusive method) gives them; needs at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median: the run-to-run spread a bound is checked against."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between the
    closest ranks (the 'inclusive' definition, numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile's rank."""
    return n - math.ceil(n * p / 100.0)


def tail_percentile(n, min_beyond=10):
    """The highest whole percentile with at least `min_beyond` of n samples
    beyond it, or None when n is too small to have one."""
    for p in range(99, 0, -1):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    end = -math.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_time(span, children):
    """A span's duration minus the part of its interval its children cover.
    Spans are (start, end) pairs; children are clipped to the parent."""
    s, e = span
    clipped = [(max(cs, s), min(ce, e))
               for cs, ce in children if ce > s and cs < e]
    return (e - s) - covered(clipped)

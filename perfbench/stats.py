"""Statistics shared by the benchmark's runner and its compare tool."""

import statistics

# A tail percentile is quoted only where at least this many samples lie
# beyond it, so a single slow epoch cannot set it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample_count): the sample with exactly
    `beyond` larger samples, and its percentile rank (n - beyond) / n.
    Raises ValueError when there are not more than `beyond` samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"tail needs more than {beyond} samples, got {n}")
    ordered = sorted(values)
    return ordered[n - beyond - 1], (n - beyond) / n, n


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) (exclusive method) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)

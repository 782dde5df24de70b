"""Order statistics used by the benchmark: percentiles, medians, spreads."""

import math
import statistics


def percentile(samples, q):
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``.

    Nearest rank always returns a value that was measured, so a p90 of
    ten samples is the ninth-smallest one, never an interpolation.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("percentile rank {} outside (0, 100]".format(q))
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples):
    """Median of the repeats (mean of the middle two for even counts)."""
    return statistics.median(samples)


def rel_range(samples):
    """(max - min) / median: the min-max spread of a set of repeats."""
    mid = median(samples)
    if mid == 0:
        return 0.0
    return (max(samples) - min(samples)) / abs(mid)


def iqr_share(samples):
    """Distance between the first and third quartile as a share of the median.

    The steadiness figure of the benchmark contract: quartiles as
    ``statistics.quantiles(values, n=4)`` gives them.
    """
    if len(samples) < 2:
        return 0.0
    first, mid, third = statistics.quantiles(samples, n=4)
    if mid == 0:
        return 0.0
    return (third - first) / abs(mid)

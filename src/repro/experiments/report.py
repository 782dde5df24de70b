"""Small reporting helpers: statistics (the tables are ``repro.obs.dashboard``'s)."""

import math


def mean(values):
    """Arithmetic mean; 0.0 for an empty sequence."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def stdev(values):
    """Sample standard deviation; 0.0 below two samples."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((v - centre) ** 2 for v in values) / (len(values) - 1))

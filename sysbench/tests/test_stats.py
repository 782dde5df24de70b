import pytest

from sysbench.stats import iqr_share, median, percentile, rel_range


def test_percentile_is_nearest_rank():
    samples = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert percentile(samples, 50) == 5
    assert percentile(samples, 90) == 9
    assert percentile(samples, 100) == 10
    assert percentile(samples, 1) == 1
    assert percentile([7.5], 90) == 7.5


def test_percentile_returns_a_measured_value():
    samples = [1.0, 2.0, 4.0, 8.0]
    for rank in (10, 25, 50, 75, 90, 99):
        assert percentile(samples, rank) in samples


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_median_of_repeats():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    # One slow repeat does not move the reported value.
    assert median([10.0, 10.1, 25.0]) == 10.1


def test_spreads():
    assert rel_range([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    assert rel_range([5.0]) == 0.0
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    # statistics.quantiles(values, n=4) == [11.75, 14.5, 17.25]
    assert iqr_share(values) == pytest.approx(5.5 / 14.5)
    assert iqr_share([1.0]) == 0.0

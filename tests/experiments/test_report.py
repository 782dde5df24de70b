"""Unit tests for report helpers."""

import pytest

from repro.experiments.report import mean, stdev
from repro.obs.dashboard import format_table


def test_mean_of_values():
    assert mean([1.0, 2.0, 3.0]) == 2.0


def test_mean_of_empty_is_zero():
    assert mean([]) == 0.0


def test_stdev_of_constant_is_zero():
    assert stdev([5.0, 5.0, 5.0]) == 0.0


def test_stdev_known_value():
    assert stdev([2.0, 4.0]) == pytest.approx(2.0**0.5)


def test_stdev_below_two_samples_is_zero():
    assert stdev([1.0]) == 0.0


def test_format_table_aligns_columns():
    text = format_table(["Name", "Value"], [["a", 1.5], ["longer", 2]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "Name" in lines[1]
    assert "-" in lines[2]
    assert "1.500" in text
    assert "longer" in text


def test_format_table_without_title():
    text = format_table(["x"], [[1]])
    assert text.splitlines()[0] == "x"

"""Tests for the voluntary-leave experiment (§6 text)."""

import pytest

from helpers import shared

from repro.experiments.graceful import GracefulLeaveExperiment


@pytest.fixture(scope="module")
def leaves():
    """One run of three leaves, which every test here only reads."""
    yield from shared(GracefulLeaveExperiment(trials=3, cluster_size=3).run())


def test_all_samples_within_paper_bound(leaves):
    results = leaves
    assert results["samples"]
    assert results["within_bound"]
    assert results["max"] <= GracefulLeaveExperiment.UPPER_BOUND


def test_typical_sample_is_about_10ms(leaves):
    assert leaves["mean"] <= 0.05


def test_format_mentions_bound():
    experiment = GracefulLeaveExperiment(trials=1, cluster_size=2)
    assert "0.25" in experiment.format() or "0.250" in experiment.format()

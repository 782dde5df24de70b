"""Tests for the Figure 5 reproduction (reduced size for speed)."""

import pytest

from helpers import shared

from repro.experiments.figure5 import Figure5Experiment


def small_experiment():
    return Figure5Experiment(cluster_sizes=(2, 4), trials=2)


@pytest.fixture(scope="module")
def figure():
    """One run of the small figure, which every test here only reads."""
    experiment = small_experiment()
    yield from shared((experiment, experiment.run()))


def test_series_shapes_match_the_paper(figure):
    experiment, series = figure
    for size in experiment.cluster_sizes:
        default = series["Default Spread"][size]["mean"]
        tuned = series["Fine-tuned Spread"][size]["mean"]
        # Default lands in ~10-13s, tuned in ~2-3s; tuned wins by ~4-6x.
        assert 9.5 <= default <= 13.0
        assert 1.9 <= tuned <= 3.0
        assert default / tuned > 3.0


def test_roughly_flat_across_cluster_sizes(figure):
    experiment, series = figure
    for config_name in experiment.configs:
        means = [series[config_name][s]["mean"] for s in experiment.cluster_sizes]
        assert max(means) - min(means) < 2.5


def test_format_contains_figure_title_and_sizes(figure):
    experiment, series = figure
    text = experiment.format(series)
    assert "Figure 5" in text
    assert "Cluster Size" in text
    for size in experiment.cluster_sizes:
        assert str(size) in text


def test_run_point_returns_requested_trials():
    experiment = small_experiment()
    from repro.gcs.config import SpreadConfig

    samples = experiment.run_point(SpreadConfig.tuned(), 2)
    assert len(samples) == 2
    assert all(s > 0 for s in samples)


def test_format_chart_renders_both_series(figure):
    experiment, series = figure
    chart = experiment.format_chart(series)
    assert "Default Spread" in chart
    assert "Fine-tuned Spread" in chart
    assert "Cluster Size" in chart

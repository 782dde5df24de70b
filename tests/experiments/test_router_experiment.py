"""Tests for the §5.2 router-failover experiment (reduced sizes)."""

import pytest

from helpers import shared

from repro.experiments.router_experiment import RouterFailoverExperiment
from repro.gcs.config import SpreadConfig


@pytest.fixture(scope="module")
def router_run():
    """One run of the experiment, which every test here only reads."""
    experiment = RouterFailoverExperiment(
        trials=1, rip_interval=10.0, spread_config=SpreadConfig.tuned()
    )
    yield from shared((experiment, experiment.run()))


def test_naive_pays_convergence_and_advertise_all_does_not(router_run):
    experiment, results = router_run
    static = results["static"]["mean"]
    naive = results["naive"]["mean"]
    advertise_all = results["advertise_all"]["mean"]
    assert naive > static + 3.0
    assert abs(advertise_all - static) < 1.0
    assert naive <= static + experiment.rip_interval + 2.0


def test_format_lists_all_modes(router_run):
    experiment, results = router_run
    text = experiment.format(results)
    for mode in experiment.MODES:
        assert mode in text

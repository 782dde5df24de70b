"""Tests for the pool-wide availability experiment (reduced sizes)."""

import pytest

from helpers import shared

from repro.experiments.availability import AvailabilityExperiment
from repro.gcs.config import SpreadConfig


def small(**kwargs):
    defaults = dict(
        window=30.0,
        n_servers=3,
        n_vips=4,
        faults=1,
        trials=1,
        spread_config=SpreadConfig.tuned(),
        probe_interval=0.02,
    )
    defaults.update(kwargs)
    return AvailabilityExperiment(**defaults)


@pytest.fixture(scope="module")
def fault_free():
    """One fault-free run, which every test here only reads."""
    experiment = small(faults=0)
    yield from shared((experiment, experiment.run()))


@pytest.fixture(scope="module")
def one_fault():
    """One run with a single fault, which every test here only reads."""
    yield from shared(small().run())


def test_no_faults_means_full_availability(fault_free):
    _experiment, results = fault_free
    assert results["pool_availability"] > 0.999
    assert results["worst_vip_availability"] > 0.999


def test_one_fault_costs_roughly_the_interruption_window(one_fault):
    results = one_fault
    # The victim's VIPs lose ~2.2s out of 30; the pool average less.
    assert 0.80 < results["worst_vip_availability"] < 1.0
    assert results["pool_availability"] > results["worst_vip_availability"]


def test_tuned_beats_default_availability(one_fault):
    tuned = one_fault
    default = small(spread_config=SpreadConfig.default(), window=40.0).run()
    assert tuned["pool_availability"] > default["pool_availability"]


def test_format_renders_percentages(fault_free):
    experiment, results = fault_free
    text = experiment.format(results)
    assert "Pool-wide availability" in text
    assert "%" in text


def test_multiple_probes_share_the_client_host():
    experiment = small(faults=0)
    pool, per_vip, probes = experiment.run_trial(seed=8800)
    ports = {probe.client_port for probe in probes}
    assert len(ports) == len(probes)
    assert len(per_vip) == 4

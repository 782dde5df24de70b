"""Tests for the §7 protocol comparison (reduced sizes)."""

import pytest

from helpers import shared

from repro.experiments.baselines_experiment import BaselineComparison


@pytest.fixture(scope="module")
def comparison_run():
    """One run of the comparison, which every test here only reads."""
    comparison = BaselineComparison(trials=1)
    yield from shared((comparison, comparison.run()))


def test_wackamole_tuned_beats_default_and_hsrp(comparison_run):
    _comparison, results = comparison_run
    tuned = results["wackamole-tuned"]["mean"]
    default = results["wackamole-default"]["mean"]
    hsrp = results["hsrp"]["mean"]
    vrrp = results["vrrp"]["mean"]
    assert 0 < tuned < 3.5
    assert 9.5 < default < 13.5
    assert 6.5 < hsrp <= 10.5  # hold time 10s minus hello phase
    assert 2.5 < vrrp < 4.5  # master-down interval ~3.4s
    assert tuned < vrrp < default


def test_fake_detection_bounded_by_probe_budget():
    comparison = BaselineComparison(trials=1)
    samples = comparison.run_protocol("fake")
    # 3 failed probes at 1s plus timeout plus ARP: a few seconds.
    assert all(1.5 <= s <= 5.0 for s in samples)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        BaselineComparison(trials=1)._one_trial("carrier-pigeon", 1)


def test_format_lists_all_protocols(comparison_run):
    comparison, results = comparison_run
    text = comparison.format(results)
    for protocol in comparison.PROTOCOLS:
        assert protocol in text

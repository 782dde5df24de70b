"""Integration tests for the fail-over trial runner."""

import pytest

from repro.experiments.runner import run_failover_trial
from repro.gcs.config import SpreadConfig


def test_tuned_trial_lands_in_paper_window():
    scenario, result = run_failover_trial(
        seed=100, cluster_size=3, spread_config=SpreadConfig.tuned()
    )
    lo, hi = SpreadConfig.tuned().notification_window()
    assert result.interruption is not None
    assert lo - 0.1 <= result.interruption <= hi + 1.0
    assert scenario.auditor.check() == []
    assert result.victim != result.takeover


def test_default_trial_lands_in_paper_window():
    _scenario, result = run_failover_trial(
        seed=101, cluster_size=3, spread_config=SpreadConfig.default()
    )
    lo, hi = SpreadConfig.default().notification_window()
    assert lo - 0.1 <= result.interruption <= hi + 1.0


def test_graceful_mode_is_fast():
    _scenario, result = run_failover_trial(
        seed=102,
        cluster_size=3,
        spread_config=SpreadConfig.tuned(),
        fault_mode="shutdown",
    )
    assert result.interruption <= 0.250


def test_trials_are_reproducible():
    _, a = run_failover_trial(seed=103, cluster_size=3, spread_config=SpreadConfig.tuned())
    _, b = run_failover_trial(seed=103, cluster_size=3, spread_config=SpreadConfig.tuned())
    assert a.interruption == b.interruption
    assert a.victim == b.victim


def test_different_seeds_vary_fault_phase():
    results = [
        run_failover_trial(seed=s, cluster_size=3, spread_config=SpreadConfig.tuned())[1]
        for s in (104, 105, 106)
    ]
    assert len({r.interruption for r in results}) > 1


def test_trial_records_fields():
    scenario, result = run_failover_trial(
        seed=107, cluster_size=2, spread_config=SpreadConfig.tuned()
    )
    assert len(scenario.hosts) == 2
    assert len(scenario.vips) == 10
    assert result.failover_episode().trigger_kind == "fault:nic_down"
    assert result.fault_time > 0

"""Unit tests for the Spread configuration presets (Table 1)."""

import pytest

from repro.gcs.config import SpreadConfig
from repro.stabilization import PROFILES


def test_default_preset_matches_table1():
    config = SpreadConfig.default()
    assert config.fault_detection_timeout == 5.0
    assert config.heartbeat_timeout == 2.0
    assert config.discovery_timeout == 7.0


def test_tuned_preset_matches_table1():
    config = SpreadConfig.tuned()
    assert config.fault_detection_timeout == 1.0
    assert config.heartbeat_timeout == 0.4
    assert config.discovery_timeout == 1.4


def test_default_notification_window_is_10_to_12_seconds():
    assert SpreadConfig.default().notification_window() == (10.0, 12.0)


def test_tuned_notification_window_is_2_to_2_4_seconds():
    lo, hi = SpreadConfig.tuned().notification_window()
    assert lo == pytest.approx(2.0)
    assert hi == pytest.approx(2.4)


def test_detection_window_is_fd_minus_hb_to_fd():
    config = SpreadConfig.default()
    assert config.detection_window() == (3.0, 5.0)


def test_heartbeat_must_be_below_fault_detection():
    with pytest.raises(ValueError):
        SpreadConfig(fault_detection_timeout=1.0, heartbeat_timeout=1.0)


def test_describe_lists_the_three_table1_timeouts():
    described = SpreadConfig.default().describe()
    assert set(described) == {
        "fault_detection_timeout",
        "heartbeat_timeout",
        "discovery_timeout",
    }


def test_repr_mentions_timeouts():
    assert "fd=5.0" in repr(SpreadConfig.default())


def test_fast_preset_keeps_table1_ratios_and_takes_overrides():
    fast = SpreadConfig.fast()
    assert (fast.fault_detection_timeout, fast.heartbeat_timeout) == (0.5, 0.2)
    assert fast.discovery_timeout == 0.5
    assert fast.profile is PROFILES["paper"]
    assert SpreadConfig.fast(discovery_timeout=0.6).discovery_timeout == 0.6


def test_named_profiles():
    assert SpreadConfig.fast().profile.suspicion_misses == 1
    hardened = SpreadConfig.fast(profile="hardened").profile
    assert hardened.suspicion_misses == 2 and hardened.audit_interval == 0.0
    stabilizing = SpreadConfig.fast(profile="stabilizing").profile
    assert stabilizing.suspicion_misses == 2 and stabilizing.audit_interval == 0.5
    with pytest.raises(ValueError, match="stabilizing"):
        SpreadConfig.fast(profile="corrupt")

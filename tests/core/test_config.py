"""Unit tests for Wackamole configuration."""

import pytest

from repro.core.config import VipGroup, WackamoleConfig
from repro.net.addresses import IPAddress
from repro.stabilization import PROFILES


def test_for_vips_builds_single_address_groups():
    config = WackamoleConfig.for_vips(["10.0.0.1", "10.0.0.2"])
    assert config.slot_ids() == ("10.0.0.1", "10.0.0.2")
    assert config.group("10.0.0.1").addresses == (IPAddress("10.0.0.1"),)


def test_vip_group_holds_multiple_addresses():
    group = VipGroup("router", ["10.0.0.1", "192.168.0.1"])
    assert len(group.addresses) == 2


def test_empty_vip_group_rejected():
    with pytest.raises(ValueError):
        VipGroup("empty", [])


def test_duplicate_group_ids_rejected():
    with pytest.raises(ValueError):
        WackamoleConfig([VipGroup("x", ["10.0.0.1"]), VipGroup("x", ["10.0.0.2"])])


@pytest.mark.parametrize(
    "name, value",
    [
        ("balance_timeout", 0.0),
        ("balance_timeout", -1.0),
        ("maturity_timeout", -0.1),
    ],
)
def test_timer_that_cannot_run_is_rejected_at_construction(name, value):
    # A zero balance period used to livelock the run at one instant; a
    # negative delay failed only at the timer's first use.
    with pytest.raises(ValueError, match=name):
        WackamoleConfig.for_vips(["10.0.0.1"], **{name: value})


def test_zero_maturity_and_holddown_are_accepted():
    # The holddown is a profile row's: an ablation's variant row may zero it.
    row = PROFILES["hardened"]._replace(arp_conflict_holddown=0.0)
    config = WackamoleConfig.for_vips(["10.0.0.1"], maturity_timeout=0.0, profile=row)
    assert (config.maturity_timeout, config.profile.arp_conflict_holddown) == (0.0, 0.0)


def test_unknown_preference_rejected():
    with pytest.raises(ValueError):
        WackamoleConfig.for_vips(["10.0.0.1"], prefer=("10.0.0.9",))


def test_known_preference_accepted():
    config = WackamoleConfig.for_vips(["10.0.0.1"], prefer=("10.0.0.1",))
    assert config.prefer == ("10.0.0.1",)


def test_unknown_group_lookup_raises():
    config = WackamoleConfig.for_vips(["10.0.0.1"])
    with pytest.raises(KeyError):
        config.group("nope")


def test_copy_for_overrides_selected_fields():
    config = WackamoleConfig.for_vips(["10.0.0.1"], balance_timeout=10.0)
    clone = config.copy_for(balance_timeout=99.0)
    assert clone.balance_timeout == 99.0
    assert clone.vip_groups == config.vip_groups
    assert config.balance_timeout == 10.0


def test_vip_group_equality_and_hash():
    a = VipGroup("g", ["10.0.0.1"])
    b = VipGroup("g", ["10.0.0.1"])
    assert a == b
    assert len({a, b}) == 1


def test_notify_ips_parsed():
    config = WackamoleConfig.for_vips(["10.0.0.1"], notify_ips=("10.0.0.254",))
    assert config.notify_ips == (IPAddress("10.0.0.254"),)


def test_stabilization_defaults_off_and_rides_copy_for():
    config = WackamoleConfig.for_vips(["10.0.0.1"])
    assert config.profile is PROFILES["paper"]
    assert config.profile.audit_interval == 0.0
    audited = WackamoleConfig.for_vips(["10.0.0.1"], profile="stabilizing")
    assert audited.profile.audit_interval == 0.5
    clone = audited.copy_for(balance_timeout=9.0)
    assert clone.profile is audited.profile


def test_copy_for_round_trips_every_attribute():
    # A field added to __init__ but forgotten by copy_for would revert
    # to its default here; every value below is a non-default.
    config = WackamoleConfig(
        [VipGroup("g1", ["10.0.0.1", "10.0.1.1"]), VipGroup("g2", ["10.0.0.2"])],
        group_name="pool",
        balance_enabled=False,
        balance_timeout=3.0,
        maturity_timeout=1.5,
        prefer=("g2",),
        notify_ips=("10.0.0.254",),
        arp_share_interval=4.0,
        arp_share_ttl=60.0,
        eager_conflict_resolution=False,
        representative_allocation=True,
        weight=2.5,
        profile="stabilizing",
    )
    defaults = vars(WackamoleConfig(config.vip_groups))
    fields = vars(config)
    assert all(fields[name] != defaults[name] for name in fields if name != "vip_groups")
    assert vars(config.copy_for()) == fields


@pytest.mark.parametrize("name", ["paper", "hardened", "stabilizing"])
def test_named_profiles_build_valid_configs(name):
    config = WackamoleConfig.for_vips(["10.0.0.1"], profile=name)
    assert config.profile is PROFILES[name]
    assert (config.profile.audit_interval > 0) == (name == "stabilizing")
    assert (config.profile.arp_announce_retries > 0) == (name != "paper")
    assert (config.profile.supervisor is None) == (name == "paper")


def test_profile_rows_are_immutable_and_unknown_names_rejected():
    hardened = PROFILES["hardened"]
    with pytest.raises(AttributeError):
        hardened.arp_announce_retries = 99
    variant = hardened._replace(arp_reannounce_interval=1.0)
    assert WackamoleConfig.for_vips(["10.0.0.1"], profile=variant).profile is variant
    assert PROFILES["hardened"].arp_reannounce_interval == 2.0
    with pytest.raises(ValueError, match="paper"):
        WackamoleConfig.for_vips(["10.0.0.1"], profile="gray")

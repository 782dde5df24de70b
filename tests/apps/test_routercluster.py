"""Integration tests for the Figure 4 virtual-router scenario."""

import pytest

from repro.apps.routercluster import VIRTUAL_ROUTER_SLOT, RouterClusterScenario
from repro.gcs.config import SpreadConfig


def scenario(mode="static", **kwargs):
    defaults = dict(
        seed=2,
        n_routers=2,
        routing_mode=mode,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 1.0},
        rip_interval=10.0,
    )
    defaults.update(kwargs)
    return RouterClusterScenario(**defaults)


def fail_over(mode, fault, run_for):
    """Probe a settled cluster for a second, fail its active router, run on."""
    sc = scenario(mode).start()
    assert sc.run_until_stable(timeout=60.0)
    probe = sc.start_probe()
    sc.sim.run_for(1.0)
    fault_time = sc.sim.now
    sc.fail_active(mode=fault)
    sc.sim.run_for(run_for)
    return sc, probe, fault_time, probe.longest_gap(after=fault_time)


def test_one_router_holds_the_whole_virtual_set():
    sc = scenario().start()
    assert sc.run_until_stable(timeout=60.0)
    active = sc.active_router()
    assert active is not None
    router = active.host
    assert router.owns_ip("198.51.100.1")
    assert router.owns_ip("203.0.113.101")
    assert router.owns_ip("192.168.0.1")
    passive = next(w for w in sc.wacks if w is not active)
    assert not passive.host.owns_ip("198.51.100.1")


def test_internal_host_reaches_internet_through_virtual_router():
    sc = scenario().start()
    assert sc.run_until_stable(timeout=60.0)
    probe = sc.start_probe()
    sc.sim.run_for(0.5)
    assert probe.responses
    assert probe.responses[-1].server == "internet-host"


def test_web_host_path_also_works():
    sc = scenario().start()
    assert sc.run_until_stable(timeout=60.0)
    probe = sc.start_probe(source="web")
    sc.sim.run_for(0.5)
    assert probe.responses


def test_crash_moves_the_indivisible_set_atomically():
    sc = scenario().start()
    assert sc.run_until_stable(timeout=60.0)
    victim = sc.fail_active(mode="crash")
    sc.sim.run_for(10.0)
    active = sc.active_router()
    assert active is not None and active is not victim
    router = active.host
    for vip in ("198.51.100.1", "203.0.113.101", "192.168.0.1"):
        assert router.owns_ip(vip)
    assert sc.auditor.check() == []


def test_static_mode_failover_within_tuned_window():
    _sc, _probe, _fault_time, gap = fail_over("static", "crash", 20.0)
    assert gap <= SpreadConfig.tuned().notification_window()[1] + 1.0


def test_naive_mode_pays_routing_convergence():
    sc, probe, fault_time, gap = fail_over("naive", "crash", 40.0)
    # Interruption includes waiting for the next advertisement round.
    _, failover_hi = SpreadConfig.tuned().notification_window()
    assert gap > failover_hi + 1.0
    assert gap <= failover_hi + sc.rip_interval + 2.0
    # Traffic did recover.
    assert any(r.time > fault_time + gap for r in probe.responses)


def test_advertise_all_mode_avoids_convergence_delay():
    _sc, _probe, _fault_time, gap = fail_over("advertise_all", "crash", 40.0)
    assert gap <= SpreadConfig.tuned().notification_window()[1] + 1.0


def test_unknown_routing_mode_rejected():
    with pytest.raises(ValueError):
        RouterClusterScenario(routing_mode="quantum")


def test_graceful_shutdown_hands_off_quickly():
    sc, _probe, _fault_time, gap = fail_over("static", "shutdown", 5.0)
    assert gap <= 0.5
    assert sc.active_router() is not None


def test_vip_group_slot_name():
    sc = scenario()
    assert sc.wackamole_config.slot_ids() == (VIRTUAL_ROUTER_SLOT,)


def test_arp_sharing_builds_targeted_notification_sets():
    sc = scenario(arp_share=True).start()
    assert sc.run_until_stable(timeout=60.0)
    probe = sc.start_probe()
    sc.sim.run_for(12.0)  # a couple of share rounds with live traffic
    # Both routers now know (approximately) who resolved the virtual
    # router's addresses (§5.2).
    assert all(w.notifier.shared_size() > 0 for w in sc.wacks)
    fault_time = sc.sim.now
    sc.fail_active(mode="crash")
    sc.sim.run_for(15.0)
    # Fail-over still completes with targeted notifications.
    gap = probe.longest_gap(after=fault_time)
    assert gap is not None
    assert any(r.time > fault_time + 5.0 for r in probe.responses)
    assert sc.auditor.check() == []

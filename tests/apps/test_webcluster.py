"""Integration tests for the Figure 3 web-cluster scenario."""

import pytest

from repro.apps.webcluster import WebClusterScenario
from repro.gcs.config import SpreadConfig


def tuned_scenario(**kwargs):
    defaults = dict(
        seed=1,
        n_servers=3,
        n_vips=6,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 1.0, "balance_enabled": False},
    )
    defaults.update(kwargs)
    return WebClusterScenario(**defaults)


def test_scenario_stabilises_with_full_coverage():
    scenario = tuned_scenario().start()
    assert scenario.run_until_stable(timeout=30.0)
    coverage = scenario.coverage()
    assert all(len(owners) == 1 for owners in coverage.values())


def test_probe_round_trip_through_vip():
    scenario = tuned_scenario().start()
    assert scenario.run_until_stable(timeout=30.0)
    probe = scenario.start_probe()
    scenario.sim.run_for(0.5)
    assert probe.responses
    assert probe.responses[-1].server.startswith("web")


def test_nic_down_failover_measured_within_tuned_window():
    scenario = tuned_scenario().start()
    assert scenario.run_until_stable(timeout=30.0)
    probe = scenario.start_probe()
    scenario.sim.run_for(0.5)
    fault_time = scenario.sim.now
    victim = scenario.kill_owner_of(scenario.vips[0], mode="nic_down")
    scenario.sim.run_for(6.0)
    gap = probe.failover_interruption(after=fault_time)
    lo, hi = SpreadConfig.tuned().notification_window()
    assert gap is not None
    assert lo - 0.1 <= gap <= hi + 1.0
    takeover = scenario.owner_of(scenario.vips[0])
    assert takeover is not None and takeover is not victim


def test_crash_failover():
    scenario = tuned_scenario().start()
    assert scenario.run_until_stable(timeout=30.0)
    probe = scenario.start_probe()
    scenario.sim.run_for(0.5)
    fault_time = scenario.sim.now
    scenario.kill_owner_of(scenario.vips[0], mode="crash")
    scenario.sim.run_for(6.0)
    assert probe.failover_interruption(after=fault_time) is not None
    assert scenario.auditor.check() == []


def test_graceful_shutdown_is_fast():
    scenario = tuned_scenario().start()
    assert scenario.run_until_stable(timeout=30.0)
    probe = scenario.start_probe()
    scenario.sim.run_for(0.5)
    fault_time = scenario.sim.now
    scenario.kill_owner_of(scenario.vips[0], mode="shutdown")
    scenario.sim.run_for(3.0)
    gap = probe.failover_interruption(after=fault_time)
    assert gap is not None
    assert gap <= 0.250


def test_unknown_fault_mode_rejected():
    scenario = tuned_scenario().start()
    assert scenario.run_until_stable(timeout=30.0)
    with pytest.raises(ValueError):
        scenario.kill_owner_of(scenario.vips[0], mode="meteor")


def test_router_notified_via_configured_target():
    scenario = tuned_scenario().start()
    # The web cluster config notifies the router's IP by default.
    assert scenario.wackamole_config.notify_ips
    assert scenario.run_until_stable(timeout=30.0)


def test_scenario_scales_to_larger_cluster():
    scenario = tuned_scenario(n_servers=8, n_vips=10).start()
    assert scenario.run_until_stable(timeout=60.0)
    counts = [len(w.iface.owned_slots()) for w in scenario.wacks]
    assert sum(counts) == 10
    assert max(counts) - min(counts) <= 1


@pytest.mark.parametrize(
    "sizes, limit",
    [({"n_vips": 51}, "at most 50"), ({"n_servers": 141}, "at most 140")],
)
def test_address_plan_collisions_fail_loudly(sizes, limit):
    # VIP .200/.201 would also be the probe and flow clients' addresses;
    # server .150 would also be the first VIP.
    with pytest.raises(ValueError, match=limit):
        WebClusterScenario(**sizes)


def test_address_plan_limits_themselves_are_buildable():
    scenario = WebClusterScenario(n_servers=2, n_vips=50, flow_users=100)
    machines = scenario.hosts + [scenario.client_host, scenario.flow_host]
    taken = {str(ip) for host in machines for ip in host.local_ips()}
    assert not taken & set(scenario.vips)

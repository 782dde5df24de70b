"""The cluster kit's own contracts (scenario tests cover the rest)."""

import pytest

from repro.apps.cluster import ServerGroup, run_until
from repro.core.config import WackamoleConfig
from repro.gcs.config import SpreadConfig
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.sim.simulation import Simulation
from repro.stabilization import PROFILES


def build_group(profile, n=3):
    sim = Simulation(seed=5)
    lan = Lan(sim, "lan0", "10.0.0.0/24")
    vips = ["10.0.0.{}".format(100 + i) for i in range(4)]
    wconfig = WackamoleConfig.for_vips(vips, maturity_timeout=0.5)
    group = ServerGroup(sim, lan, SpreadConfig.fast(), wconfig, profile=profile)
    for index in range(n):
        host = Host(sim, "node{}".format(index))
        host.add_nic(lan, "10.0.0.{}".format(10 + index))
        group.add(host)
    return group.start(stagger=0.02)


def test_run_until_strides_and_times_out():
    sim = Simulation(seed=0)
    assert run_until(sim, lambda: sim.now >= 1.0, timeout=5.0, step=0.4, extra=0.3)
    assert sim.now == pytest.approx(1.5)  # 3 strides + extra
    assert not run_until(sim, lambda: False, timeout=1.0, step=0.4)
    assert sim.now == pytest.approx(2.7)


@pytest.mark.parametrize("profile, supervised", [("paper", False), ("hardened", True)])
def test_restart_replaces_the_generation_in_place(profile, supervised):
    group = build_group(profile)
    assert len(group.supervisors) == (3 if supervised else 0)
    assert run_until(group.sim, group.settled, 20.0, 0.2)
    old_spread, old_wack = group.spreads[1], group.wacks[1]
    faults = FaultInjector(group.sim)
    faults.crash_host(group.hosts[1])
    group.sim.run_for(3.0)
    faults.recover_host(group.hosts[1])
    group.restart(1)
    assert group.restarts == 1
    assert group.spreads[1] is not old_spread and group.wacks[1] is not old_wack
    assert group.spreads[1].daemon_id == "node1-r1"
    assert run_until(group.sim, group.settled, 20.0, 0.2)
    # settled() re-pointed the auditor at the new generation.
    assert group.auditor.daemons == group.wacks
    if supervised:
        assert group.supervisors[1].wackamole is group.wacks[1]


def test_supervisor_restart_updates_the_columns():
    group = build_group("hardened")
    assert run_until(group.sim, group.settled, 20.0, 0.2)
    wedged = group.spreads[0]
    FaultInjector(group.sim).wedge_daemon(wedged)
    group.sim.run_for(6.0)
    assert group.spreads[0] is not wedged and group.spreads[0].alive
    assert run_until(group.sim, group.settled, 20.0, 0.2)


def test_a_named_profile_is_stamped_on_copies_of_both_configs():
    group = build_group("stabilizing", n=1)
    row = PROFILES["stabilizing"]
    assert group.spread_config.profile is row and group.wackamole_config.profile is row
    assert [s.settings for s in group.supervisors] == [row.supervisor]


def test_without_a_profile_the_group_runs_the_row_its_configs_carry():
    sim = Simulation(seed=5)
    spread_config = SpreadConfig.fast()
    wconfig = WackamoleConfig.for_vips(["10.0.0.100"], profile="hardened")
    group = ServerGroup(sim, Lan(sim, "lan0", "10.0.0.0/24"), spread_config, wconfig)
    assert group.spread_config is spread_config and group.wackamole_config is wconfig
    assert group.supervision == PROFILES["hardened"].supervisor

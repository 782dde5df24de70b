"""A long end-to-end story exercising the whole stack in one run.

Boot a five-server web cluster behind a router, then walk it through
the lifecycle the paper designed for: crash, interface failure, switch
partition, merge, host recovery with daemon restart, graceful
administrative drains down to a single survivor — verifying Property 1
(via the auditor) and client-visible service at every quiescent point.
"""

from repro.apps.webcluster import WebClusterScenario
from repro.core.daemon import WackamoleDaemon
from repro.gcs.config import SpreadConfig
from repro.gcs.daemon import SpreadDaemon


def checkpoint(scenario, label):
    assert scenario.run_until_stable(timeout=60.0), "not stable at: " + label
    violations = scenario.auditor.check()
    assert violations == [], "{}: {}".format(label, violations)


def probe_is_alive(scenario):
    before = len(scenario.probe.responses)
    scenario.sim.run_for(0.5)
    return len(scenario.probe.responses) > before


def test_full_lifecycle_story():
    scenario = WebClusterScenario(
        seed=77,
        n_servers=5,
        n_vips=10,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 1.0, "balance_timeout": 2.0},
    )
    scenario.start()
    checkpoint(scenario, "boot")
    scenario.start_probe()
    assert probe_is_alive(scenario)

    # 1. A server crashes.
    scenario.kill_owner_of(scenario.vips[0], mode="crash")
    checkpoint(scenario, "after crash")
    assert probe_is_alive(scenario)

    # 2. Another server's interface is disconnected (the §6 fault).
    victim_nic_down = scenario.kill_owner_of(scenario.vips[0], mode="nic_down")
    checkpoint(scenario, "after nic down")
    assert probe_is_alive(scenario)

    # 3. The interface comes back: merge, conflicts, re-balance.
    scenario.faults.nic_up(victim_nic_down.host.nic_on(scenario.lan))
    checkpoint(scenario, "after nic up merge")
    assert sum(w.conflicts_dropped for w in scenario.wacks) > 0
    assert probe_is_alive(scenario)

    # 4. A switch failure partitions the cluster; both sides keep
    #    serving their components, then merge cleanly.
    live_hosts = [w.host for w in scenario.wacks if w.alive]
    partition = scenario.faults.partition(
        scenario.lan, [live_hosts[:2], live_hosts[2:] + [scenario.client_host,
                                                         scenario.router]]
    )
    checkpoint(scenario, "during partition")
    assert probe_is_alive(scenario)  # the client's side still serves
    partition.undo()
    checkpoint(scenario, "after heal")
    assert probe_is_alive(scenario)

    # 5. The crashed host comes back; fresh daemons rejoin the cluster.
    dead = next(w for w in scenario.wacks if not w.alive)
    scenario.faults.recover_host(dead.host)
    # Reboot restarts the whole stack: web service, GCS, Wackamole.
    from repro.apps.workload import UdpEchoServer

    UdpEchoServer(dead.host)
    spread = SpreadDaemon(
        dead.host, scenario.lan, scenario.spread_config,
        daemon_id=dead.host.name + "-r",
    )
    wack = WackamoleDaemon(dead.host, spread, scenario.wackamole_config)
    spread.start()
    wack.start()
    scenario.wacks.append(wack)
    scenario.spreads.append(spread)
    scenario.auditor.daemons.append(wack)
    checkpoint(scenario, "after rejoin")
    assert wack.mature  # matured from peers' STATE messages
    assert probe_is_alive(scenario)

    # 6. Administrators drain servers one by one; the last survivor
    #    must end up covering all ten addresses alone.
    while sum(1 for w in scenario.wacks if w.alive) > 1:
        draining = next(w for w in scenario.wacks if w.alive)
        draining.shutdown()
        checkpoint(scenario, "after draining {}".format(draining.host.name))
        assert probe_is_alive(scenario)
    survivor = next(w for w in scenario.wacks if w.alive)
    assert len(survivor.iface.owned_slots()) == 10

    # The client saw service from several different servers along the way.
    assert len(scenario.probe.servers_seen()) >= 3

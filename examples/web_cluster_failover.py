#!/usr/bin/env python3
"""The paper's §6 experiment on the Figure 3 web cluster.

A client probes one virtual address every 10 ms while the interface of
the server covering it is disconnected. The availability interruption
(last reply from the victim to first reply from the takeover server)
is printed for both Table 1 Spread configurations.

Run:  python examples/web_cluster_failover.py
"""

from repro.apps import WebClusterScenario
from repro.gcs import SpreadConfig


def run_one(name, spread_config):
    scenario = WebClusterScenario(
        seed=11,
        n_servers=4,
        n_vips=10,
        spread_config=spread_config,
        wackamole_overrides={"maturity_timeout": 2.0, "balance_enabled": False},
    )
    scenario.start()
    if not scenario.run_until_stable(timeout=60.0):
        raise SystemExit("cluster failed to stabilise")

    scenario.start_probe()
    scenario.sim.run_for(1.0)
    lo, hi = spread_config.notification_window()
    failover = scenario.measure_failover("nic_down", hi + 3.0)
    print(
        "{:<18} victim={:<6} takeover={:<6} interruption={:.3f}s "
        "(paper window {:.1f}-{:.1f}s)".format(
            name, failover.victim, failover.takeover, failover.interruption, lo, hi
        )
    )
    violations = scenario.auditor.check()
    assert not violations, violations


def main():
    print("Availability interruption, NIC-disconnect fault, 10 VIPs, 4 servers\n")
    run_one("Default Spread", SpreadConfig.default())
    run_one("Fine-tuned Spread", SpreadConfig.tuned())
    print("\nThe Spread timeouts account for nearly all of the interruption (§6).")


if __name__ == "__main__":
    main()

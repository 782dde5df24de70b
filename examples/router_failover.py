#!/usr/bin/env python3
"""N-way fail-over for routers (Figure 4 and §5.2).

Two physical routers serve three networks as one *virtual router*; an
internal host continuously reaches a service "on the internet" through
it. The active router crashes; the example reports the interruption
under the three §5.2 routing setups:

* static routes (pure Wackamole hand-off),
* naive dynamic routing (the successor waits ~30 s for the next
  advertisement round),
* advertise-all (every router stays current, so hand-off is instant).

Run:  python examples/router_failover.py
"""

from repro.apps import RouterClusterScenario
from repro.gcs import SpreadConfig


def run_mode(mode):
    scenario = RouterClusterScenario(
        seed=4,
        n_routers=2,
        routing_mode=mode,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 2.0},
        rip_interval=30.0,
    )
    scenario.start()
    if not scenario.run_until_stable(timeout=180.0):
        raise SystemExit("router cluster failed to stabilise ({})".format(mode))
    scenario.start_probe()
    scenario.sim.run_for(2.0)
    failover = scenario.measure_failover("crash", 45.0)
    print(
        "  {:<14} crashed={:<8} new active={:<8} interruption={:6.2f}s".format(
            mode, failover.victim, failover.takeover, failover.longest_gap
        )
    )


def main():
    print("Virtual-router fail-over (internal host -> internet path):\n")
    for mode in ("static", "naive", "advertise_all"):
        run_mode(mode)
    print(
        "\nThe naive setup pays the dynamic-routing convergence delay"
        " (~30 s, §5.2); advertising from all routers avoids it."
    )


if __name__ == "__main__":
    main()

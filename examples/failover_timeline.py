#!/usr/bin/env python3
"""Watching a fail-over happen: coverage timeline around a fault.

Records the cluster's VIP coverage at every change while the owner of
an address is disconnected, then renders the dip-and-recovery as an
ASCII chart — the picture behind Figure 5's single number.

Run:  python examples/failover_timeline.py
"""

from repro.apps import WebClusterScenario
from repro.experiments import render_series
from repro.gcs import SpreadConfig


def main():
    scenario = WebClusterScenario(
        seed=9,
        n_servers=4,
        n_vips=10,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 1.0, "balance_enabled": False},
    )
    scenario.start()
    if not scenario.run_until_stable(timeout=60.0):
        raise SystemExit("cluster failed to stabilise")

    timeline = scenario.watch_coverage()
    scenario.sim.run_for(1.0)
    failover = scenario.measure_failover("nic_down", 5.0)
    timeline.finish()

    print("fault: {}'s interface disconnected at t={:.2f}s\n".format(
        failover.victim, failover.fault_time))
    print(render_series(
        {"covered": timeline.series("covered")},
        width=72, height=12, y_label="count", x_label="simulated time (s)",
    ))
    dip = timeline.coverage_dip()
    if dip:
        start, end, depth = dip
        print(
            "\ncoverage dipped by {} VIP(s) from t={:.2f}s to t={:.2f}s "
            "({:.2f}s outage — the tuned Table 1 window)".format(
                depth, start, end, end - start
            )
        )


if __name__ == "__main__":
    main()

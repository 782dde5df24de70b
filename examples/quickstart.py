#!/usr/bin/env python3
"""Quickstart: a three-server Wackamole cluster in ~40 lines.

Builds a simulated LAN, lets a ServerGroup put a GCS daemon plus a
Wackamole daemon on each server, lets the cluster allocate six virtual IP addresses, then
crashes a server and watches the survivors take its addresses over.

Run:  python examples/quickstart.py
"""

from repro.apps.cluster import ServerGroup
from repro.core import WackamoleConfig
from repro.gcs import SpreadConfig
from repro.net import FaultInjector, Host, Lan
from repro.sim import Simulation


def show(title, wacks):
    print("\n== {} ==".format(title))
    for wack in wacks:
        status = wack.status()
        if not wack.alive:
            print("  {:<8} DEAD".format(wack.host.name))
            continue
        print(
            "  {:<8} {:<6} owns {}".format(
                status["host"], status["state"], ", ".join(status["owned"]) or "-"
            )
        )


def main():
    sim = Simulation(seed=7)
    lan = Lan(sim, "lan0", "10.0.0.0/24")
    vips = ["10.0.0.{}".format(100 + i) for i in range(6)]
    config = WackamoleConfig.for_vips(vips, maturity_timeout=2.0)

    group = ServerGroup(sim, lan, SpreadConfig.tuned(), config)
    for index in range(3):
        host = Host(sim, "server{}".format(index + 1))
        host.add_nic(lan, "10.0.0.{}".format(10 + index))
        group.add(host)
    hosts, wacks, auditor = group.hosts, group.wacks, group.auditor

    group.start()
    sim.run_for(10.0)
    show("after boot: every VIP covered exactly once", wacks)
    assert auditor.check() == [], "coverage violated!"

    print("\ncrashing server1 ...")
    FaultInjector(sim).crash_host(hosts[0])
    sim.run_for(10.0)
    show("after fail-over: survivors cover the full set", wacks)
    assert auditor.check() == [], "coverage violated!"
    print("\ncoverage audit: OK (Property 1 holds)")


if __name__ == "__main__":
    main()

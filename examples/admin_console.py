#!/usr/bin/env python3
"""The administrative control channel (§4.2) in action.

Boots a small cluster, then drives one daemon through the operator
command surface: inspect status, the allocation table and the live
metrics registry, hand an address off, change preferences, and finally
drain the server gracefully.

Run:  python examples/admin_console.py
"""

from repro.apps.cluster import ServerGroup
from repro.core import AdminConsole, WackamoleConfig
from repro.gcs import SpreadConfig
from repro.net import Host, Lan
from repro.sim import Simulation


def issue(console, line, sim=None, settle=0.0):
    print("wackatrl> {}".format(line))
    response = console.execute(line)
    for row in response.splitlines():
        print("  {}".format(row))
    if sim is not None and settle:
        sim.run_for(settle)


def main():
    sim = Simulation(seed=21)
    lan = Lan(sim, "lan0", "10.0.0.0/24")
    vips = ["10.0.0.{}".format(100 + i) for i in range(4)]
    config = WackamoleConfig.for_vips(vips, maturity_timeout=1.0, balance_timeout=2.0)

    group = ServerGroup(sim, lan, SpreadConfig.tuned(), config)
    for index in range(3):
        host = Host(sim, "server{}".format(index + 1))
        host.add_nic(lan, "10.0.0.{}".format(10 + index))
        group.add(host)
    wacks = group.wacks

    group.start()
    sim.run_for(8.0)
    console = AdminConsole(wacks[0])
    issue(console, "help")
    issue(console, "status")
    issue(console, "vips")
    issue(console, "table")
    print("  (live metrics for this host, filtered to the core layer:)")
    issue(console, "metrics core.")

    owned = wacks[0].iface.owned_slots()[0]
    issue(console, "release {}".format(owned), sim=sim, settle=5.0)
    print("  (after the next balance round:)")
    issue(console, "table")

    issue(console, "prefer {}".format(vips[0]))
    issue(console, "shutdown", sim=sim, settle=5.0)
    print("\nremaining cluster, seen from server2:")
    issue(AdminConsole(wacks[1]), "status")
    issue(AdminConsole(wacks[1]), "table")


if __name__ == "__main__":
    main()

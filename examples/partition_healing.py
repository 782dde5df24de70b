#!/usr/bin/env python3
"""Network partitions and merges: Wackamole's hardest case.

A switch failure splits the LAN into two components. Each component —
per the paper's Correctness property — covers the *full* virtual
address set on its own. When the partition heals, every address is
briefly claimed twice; the deterministic ResolveConflicts procedure
drops the duplicates (earlier member in the uniquely ordered list
releases) and the representative re-balances the allocation.

Run:  python examples/partition_healing.py
"""

from repro.apps.cluster import ServerGroup
from repro.core import WackamoleConfig
from repro.gcs import SpreadConfig
from repro.net import FaultInjector, Host, Lan
from repro.sim import Simulation


def coverage_map(wacks, vips):
    owners = {}
    for vip in vips:
        owners[vip] = [w.host.name for w in wacks if w.alive and w.host.owns_ip(vip)]
    return owners


def show(title, wacks, vips):
    print("\n== {} ==".format(title))
    for vip, owners in coverage_map(wacks, vips).items():
        print("  {:<14} -> {}".format(vip, ", ".join(owners) or "(uncovered)"))


def main():
    sim = Simulation(seed=13)
    lan = Lan(sim, "lan0", "10.0.0.0/24")
    vips = ["10.0.0.{}".format(100 + i) for i in range(4)]
    config = WackamoleConfig.for_vips(vips, maturity_timeout=2.0, balance_timeout=3.0)

    group = ServerGroup(sim, lan, SpreadConfig.tuned(), config)
    for index in range(4):
        host = Host(sim, "node{}".format(index + 1))
        host.add_nic(lan, "10.0.0.{}".format(10 + index))
        group.add(host)
    hosts, wacks, auditor = group.hosts, group.wacks, group.auditor

    faults = FaultInjector(sim)
    group.start()
    sim.run_for(10.0)
    show("healthy cluster: each VIP covered once", wacks, vips)

    print("\npartitioning: {node1, node2} | {node3, node4} ...")
    partition = faults.partition(lan, [hosts[:2], hosts[2:]])
    sim.run_for(10.0)
    show("partitioned: BOTH components cover the full set", wacks, vips)
    assert auditor.check() == [], "per-component coverage violated"
    conflicts_before = sum(w.conflicts_dropped for w in wacks)

    print("\nhealing the partition ...")
    partition.undo()
    sim.run_for(10.0)
    show("merged: duplicates resolved deterministically", wacks, vips)
    dropped = sum(w.conflicts_dropped for w in wacks) - conflicts_before
    print("\n  conflicting claims dropped during the merge: {}".format(dropped))
    assert auditor.check() == [], "post-merge coverage violated"
    print("  coverage audit: OK (exactly-once coverage restored)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Watching the wire: the ARP traffic that makes fail-over visible.

Attaches a packet capture to the cluster LAN, fails a server, and
prints the ARP trace — the victim's silence, the takeover server's
spoofed replies repointing every cache, and the probe traffic flowing
to the new owner.

Run:  python examples/packet_trace.py
"""

from repro.apps import WebClusterScenario
from repro.gcs import SpreadConfig
from repro.net import PacketCapture
from repro.net.packet import ARP_ETHERTYPE


def main():
    scenario = WebClusterScenario(
        seed=15,
        n_servers=3,
        n_vips=4,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 1.0, "balance_enabled": False},
    )
    scenario.start()
    if not scenario.run_until_stable(timeout=60.0):
        raise SystemExit("cluster failed to stabilise")
    scenario.start_probe()
    scenario.sim.run_for(0.5)

    capture = PacketCapture(
        scenario.lan, predicate=lambda frame: frame.ethertype == ARP_ETHERTYPE
    )
    failover = scenario.measure_failover("nic_down", 4.0)
    capture.stop()

    print("victim: {} (interface disconnected at t={:.2f}s)\n".format(
        failover.victim, failover.fault_time))
    print("ARP frames on the segment during fail-over:")
    print(capture.format())
    print("\nsummary: {}".format(capture.summary()))
    print("interruption seen by the client: {:.3f}s".format(failover.interruption))


if __name__ == "__main__":
    main()

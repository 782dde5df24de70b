"""Practical applications of the fail-over infrastructure (§5).

* :mod:`repro.apps.cluster` — the block every faithful scenario is
  assembled from: ``ServerGroup`` (Spread + Wackamole pairs on one LAN).
* :mod:`repro.apps.workload` — the §6 measurement workload: a UDP echo
  server answering with its hostname, and a probe client sampling one
  virtual address every 10 ms.
* :mod:`repro.apps.webcluster` — the Figure 3 layout: a router in
  front of N web servers sharing a pool of virtual addresses.
* :mod:`repro.apps.routing` — a simplified RIP-style dynamic routing
  protocol (the OSPF/RIP stand-in for §5.2's convergence analysis).
* :mod:`repro.apps.routercluster` — the Figure 4 layout: physical
  routers on three networks acting as one virtual router, in both the
  naive and the advertise-all dynamic-routing setups.
* :mod:`repro.apps.scalecluster` — the 256–1024-host tier: one cell
  per segment (segmented membership + rendezvous VIP managers), run
  live or sharded (imported on demand; not re-exported here).
"""

from repro.apps.routercluster import RouterClusterScenario
from repro.apps.routing import RipSpeaker, RouteAdvertisement
from repro.apps.webcluster import WebClusterScenario
from repro.apps.workload import ProbeClient, UdpEchoServer

__all__ = [
    "ProbeClient",
    "RipSpeaker",
    "RouteAdvertisement",
    "RouterClusterScenario",
    "UdpEchoServer",
    "WebClusterScenario",
]

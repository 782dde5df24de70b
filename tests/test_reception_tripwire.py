"""Count tripwire: what a heard heartbeat costs, in calls and allocations.

The faithful tier's steady state is N daemons broadcasting heartbeats
and N x (N - 1) receptions refreshing failure-detector timeouts. Two
mechanisms keep that cheap, and neither may come back quietly:

* a broadcast datagram is received once per *frame*
  (``Host.receive_ip`` takes the whole recipient tuple), not once per
  recipient;
* a refreshed timeout postpones its pending event in place
  (``Scheduler.defer``): no ``Event`` is constructed and no cancelled
  entry is left in the heap.

Counts only — no timings — on an 8-server web cluster over five
fault-free simulated seconds.
"""

from repro.apps.webcluster import WebClusterScenario
from repro.gcs.config import SpreadConfig
from repro.gcs.failure import FailureDetector
from repro.net.host import Host
from repro.net.packet import IP_ETHERTYPE
from repro.sim.events import Event

N_SERVERS = 8
WINDOW = 5.0
#: Entries a real cancel may leave in the heap until it surfaces. A
#: corpse per heartbeat heard reaches the compaction threshold (64)
#: within a second at this size.
CORPSE_ALLOWANCE = 8


def test_heard_heartbeat_costs_one_receive_per_frame_and_no_allocation(monkeypatch):
    scenario = WebClusterScenario(
        seed=3, n_servers=N_SERVERS, n_vips=8, spread_config=SpreadConfig.tuned()
    )
    scenario.start()
    scenario.run_until_stable()
    lan = scenario.lan
    scheduler = scenario.sim.scheduler

    # IP broadcasts put on the wire, and how they were received.
    ip_broadcasts = [0]
    transmit = lan.transmit

    def counting_transmit(frame, src_nic):
        if frame.dst_mac.is_broadcast and frame.ethertype == IP_ETHERTYPE:
            ip_broadcasts[0] += 1
        transmit(frame, src_nic)

    monkeypatch.setattr(lan, "transmit", counting_transmit)
    batch_entries = [0]
    batch_receptions = [0]
    receive_ip = Host.receive_ip

    def counting_receive_ip(packet, nics, *rest):
        if len(nics) > 1:
            batch_entries[0] += 1
            batch_receptions[0] += len(nics)
        receive_ip(packet, nics, *rest)

    monkeypatch.setattr(Host, "receive_ip", staticmethod(counting_receive_ip))

    # Events constructed, and corpses in the heap, while a heartbeat is heard.
    heard = [0]
    inside = [False]
    constructed_inside = [0]
    most_corpses = [0]
    heard_from = FailureDetector.heard_from
    event_init = Event.__init__

    def counting_heard_from(self, peer):
        heard[0] += 1
        inside[0] = True
        try:
            heard_from(self, peer)
        finally:
            inside[0] = False
        corpses = len(scheduler._heap) - scheduler.pending_count
        most_corpses[0] = max(most_corpses[0], corpses)

    def counting_event_init(self, *args, **kwargs):
        if inside[0]:
            constructed_inside[0] += 1
        event_init(self, *args, **kwargs)

    monkeypatch.setattr(FailureDetector, "heard_from", counting_heard_from)
    monkeypatch.setattr(Event, "__init__", counting_event_init)

    broadcasts_before = scenario.sim.metrics.totals()["net.broadcasts"]
    scenario.sim.run_for(WINDOW)
    broadcasts = scenario.sim.metrics.totals()["net.broadcasts"] - broadcasts_before

    # The window held what it is meant to measure.
    recipients = len(lan.nics) - 1
    assert ip_broadcasts[0] >= N_SERVERS * 10
    assert heard[0] >= N_SERVERS * (N_SERVERS - 1) * 10
    # Fault-free and inside the ARP lifetime: every broadcast was IP.
    assert broadcasts == ip_broadcasts[0]
    # One entry per frame, each covering every other NIC on the segment.
    assert batch_entries[0] == ip_broadcasts[0]
    assert batch_receptions[0] == ip_broadcasts[0] * recipients
    # A refresh allocates nothing and leaves nothing behind.
    assert constructed_inside[0] == 0
    assert most_corpses[0] <= CORPSE_ALLOWANCE

"""Count tripwire: what a heard heartbeat costs, in calls and allocations.

The faithful tier's steady state is N daemons broadcasting heartbeats
and N x (N - 1) receptions refreshing failure-detector timeouts, with
a flow engine ticking over an ARP view whose inputs are quiet. Four
mechanisms keep that cheap, and none may come back quietly:

* a broadcast datagram is received once per *frame*
  (``Host.receive_ip`` takes the whole recipient tuple), not once per
  recipient;
* a refreshed timeout postpones its pending event in place
  (``Scheduler.defer``): no ``Event`` is constructed and no cancelled
  entry is left in the heap;
* a heartbeat heard costs the protocol at most six Python-level calls
  (``_on_datagram``, ``heard_from``, ``on_foreign_traffic`` and its
  membership test, ``on_heartbeat`` and its gap test) and never scans
  a container (no ``max``, no ``sorted``);
* a flow tick whose inputs are those of the last resolving tick begins
  (``ArpViewResolver.begin_tick``) and resolves nothing.

Counts only — no timings — on an 8-server web cluster over five
fault-free simulated seconds. Over the same kind of window a quiet
``begin_tick`` of either resolver makes no Python-level call into
``repro/net`` at all: it compares the LAN's change counter, it does
not read the segment.

The scale tier's boot is an ARP storm — every leader's request is
overheard by every host of its segment — and a second tripwire counts
what one overhearing costs: no Python-level address hash (caches, bound sets and
the per-LAN address index are keyed by the 32-bit value) and no
``Host.owns_ip`` call except for a host with a second NIC.
"""

import os
import sys

from repro.apps.scalecluster import ScaleClusterScenario
from repro.apps.webcluster import WebClusterScenario
import pytest

from repro.flow import ArpViewResolver, DirectResolver
from repro.gcs.config import SpreadConfig
from repro.gcs.daemon import SpreadDaemon
from repro.gcs.failure import FailureDetector
from repro.gcs.messages import Heartbeat
from repro.net.addresses import IPAddress
from repro.net.arp import ArpService
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.packet import ARP_ETHERTYPE, IP_ETHERTYPE
from repro.sim.events import Event

N_SERVERS = 8
WINDOW = 5.0
#: Entries a real cancel may leave in the heap until it surfaces. A
#: corpse per heartbeat heard reaches the compaction threshold (64)
#: within a second at this size.
CORPSE_ALLOWANCE = 8
#: Python-level calls in ``repro/gcs/`` per heartbeat heard,
#: ``_on_datagram`` itself included.
GCS_CALLS_PER_HEARTBEAT = 6
GCS_DIR = os.path.join("repro", "gcs") + os.sep
NET_DIR = os.path.join("repro", "net") + os.sep


def test_heard_heartbeat_costs_one_receive_per_frame_and_no_allocation(monkeypatch):
    scenario = WebClusterScenario(
        seed=3,
        n_servers=N_SERVERS,
        n_vips=8,
        spread_config=SpreadConfig.tuned(),
        flow_users=10_000,
    )
    scenario.start()
    scenario.run_until_stable()
    lan = scenario.lan
    scheduler = scenario.sim.scheduler

    # IP broadcasts put on the wire, and how they were received.
    ip_broadcasts = [0]
    arp_frames = [0]
    transmit = lan.transmit

    def counting_transmit(frame, src_nic):
        if frame.dst_mac.is_broadcast and frame.ethertype == IP_ETHERTYPE:
            ip_broadcasts[0] += 1
        if frame.ethertype == ARP_ETHERTYPE:
            arp_frames[0] += 1
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
        if corpses > most_corpses[0]:  # not max(): the profile below counts those
            most_corpses[0] = corpses

    def counting_event_init(self, *args, **kwargs):
        if inside[0]:
            constructed_inside[0] += 1
        event_init(self, *args, **kwargs)

    monkeypatch.setattr(FailureDetector, "heard_from", counting_heard_from)
    monkeypatch.setattr(Event, "__init__", counting_event_init)

    # Calls made under _on_datagram while it handles a Heartbeat: the
    # Python-level ones in repro/gcs/ (by file, so a rename cannot hide
    # one), and the container-scanning builtins wherever they run.
    heartbeats_heard = [0]
    gcs_calls = [0]
    scans = []
    on_datagram = SpreadDaemon._on_datagram

    def profile(frame, event, arg):
        if event == "call":
            if GCS_DIR in frame.f_code.co_filename:
                gcs_calls[0] += 1
        elif event == "c_call" and arg in (max, sorted):
            scans.append(arg.__name__)

    def profiled_on_datagram(self, message, src, dst):
        if type(message) is not Heartbeat:
            return on_datagram(self, message, src, dst)
        heartbeats_heard[0] += 1
        sys.setprofile(profile)
        try:
            return on_datagram(self, message, src, dst)
        finally:
            sys.setprofile(None)

    # The sockets hold the bound method taken at construction.
    for daemon in scenario.spreads:
        daemon._socket.handler = profiled_on_datagram.__get__(daemon)

    # The flow plane over the same window.
    begins = [0]
    resolves = [0]
    begin_tick, resolve = ArpViewResolver.begin_tick, ArpViewResolver.resolve

    def counting_begin_tick(self):
        begins[0] += 1
        return begin_tick(self)

    def counting_resolve(self, vip):
        resolves[0] += 1
        return resolve(self, vip)

    monkeypatch.setattr(ArpViewResolver, "begin_tick", counting_begin_tick)
    monkeypatch.setattr(ArpViewResolver, "resolve", counting_resolve)

    broadcasts_before = scenario.sim.metrics.totals()["net.broadcasts"]
    ticks_before = scenario.flow_engine.ticks
    scenario.sim.run_for(WINDOW)
    broadcasts = scenario.sim.metrics.totals()["net.broadcasts"] - broadcasts_before
    ticks = scenario.flow_engine.ticks - ticks_before

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
    # The protocol's share of a heartbeat heard: six calls, no scan.
    assert heartbeats_heard[0] == heard[0]
    assert gcs_calls[0] <= GCS_CALLS_PER_HEARTBEAT * heartbeats_heard[0]
    assert gcs_calls[0] >= 4 * heartbeats_heard[0]  # the hook saw the calls
    assert scans == []
    # No ARP frame on the wire, so the view's inputs were quiet: every
    # tick began, none resolved.
    assert arp_frames[0] == 0
    assert ticks >= 99
    assert begins[0] == ticks
    assert resolves[0] == 0


def test_overheard_arp_costs_no_address_hash_and_no_ownership_call(monkeypatch):
    scenario = ScaleClusterScenario(seed=3, n_hosts=64, n_vips=256)
    # A bystander with a second NIC elsewhere: the one kind of recipient
    # whose ownership the segment's address index cannot answer.
    bystander = Host(scenario.sim, "bystander")
    bystander.add_nic(scenario.lan, "10.32.0.200")
    bystander.add_nic(Lan(scenario.sim, "elsewhere", "10.99.0.0/24"), "10.99.0.1")

    inside = [0]
    frames = [0]
    visits = [0]
    second_nic_visits = [0]
    hashes = [0]
    ownership_calls = [0]
    receive, address_hash, owns_ip = ArpService.receive, IPAddress.__hash__, Host.owns_ip

    def counting_receive(packet, nics):
        frames[0] += 1
        visits[0] += len(nics)
        second_nic_visits[0] += sum(len(nic.host.nics) > 1 for nic in nics)
        inside[0] += 1
        try:
            receive(packet, nics)
        finally:
            inside[0] -= 1

    def counting_hash(self):
        hashes[0] += inside[0] > 0
        return address_hash(self)

    def counting_owns_ip(self, address):
        ownership_calls[0] += inside[0] > 0
        return owns_ip(self, address)

    monkeypatch.setattr(ArpService, "receive", staticmethod(counting_receive))
    monkeypatch.setattr(IPAddress, "__hash__", counting_hash)
    monkeypatch.setattr(Host, "owns_ip", counting_owns_ip)

    scenario.start()
    assert scenario.settle()

    # The boot held the storm: each of the two segments' 31 leader
    # requests heard by the whole segment, the bystander's included.
    assert frames[0] >= 2 * 31
    assert visits[0] >= 2 * 31 * 31
    assert second_nic_visits[0] >= 31
    assert hashes[0] == 0
    assert ownership_calls[0] == second_nic_visits[0]


def _settled_web_cluster():
    scenario = WebClusterScenario(
        seed=3, n_servers=N_SERVERS, n_vips=8, spread_config=SpreadConfig.tuned(), flow_users=10_000
    )
    scenario.start()
    scenario.run_until_stable()
    return scenario


def _settled_scale_cell():
    scenario = ScaleClusterScenario(
        seed=3, n_hosts=32, n_vips=128, segment_size=32, flow_users=10_000
    )
    assert len(scenario.cells) == 1
    scenario.start()
    assert scenario.settle()
    return scenario


@pytest.mark.parametrize(
    "build, resolver_class",
    [(_settled_web_cluster, ArpViewResolver), (_settled_scale_cell, DirectResolver)],
    ids=["web", "scale"],
)
def test_quiet_begin_tick_makes_no_call_into_the_network(monkeypatch, build, resolver_class):
    scenario = build()
    quiet = [0]
    net_calls = [0]
    begin_tick = resolver_class.begin_tick

    def profiled_begin_tick(self):
        calls = [0]

        def profile(frame, event, arg):
            if event == "call" and NET_DIR in frame.f_code.co_filename:
                calls[0] += 1

        sys.setprofile(profile)
        try:
            unchanged = begin_tick(self)
        finally:
            sys.setprofile(None)
        if unchanged:
            quiet[0] += 1
            net_calls[0] += calls[0]
        return unchanged

    monkeypatch.setattr(resolver_class, "begin_tick", profiled_begin_tick)
    ticks_before = scenario.flow_engine.ticks
    scenario.sim.run_for(WINDOW)
    assert scenario.flow_engine.ticks - ticks_before >= 99
    assert quiet[0] >= 90
    assert net_calls[0] == 0

"""One ARP receive per frame equals one receive per recipient.

``ArpService.receive`` takes a frame's whole recipient tuple from one
batched LAN event, and every receiver without clock skew stores the
same immutable cache entry. Each test builds the same segment twice —
once as shipped, once with the LAN's batch split into one
``Nic.deliver`` (the routine's one-NIC case) per recipient — runs the
same script in both, and requires the two to be indistinguishable:
cache contents, reply order on the wire, ARP counters, NIC drop
counters, metrics and trace.
"""

from repro.net.addresses import BROADCAST_MAC, IPAddress
from repro.net.arp import ArpEntry
from repro.net.capture import PacketCapture
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.packet import ARP_ETHERTYPE, ArpOp, ArpPacket, EthernetFrame
from repro.sim.simulation import Simulation

VIP = "10.0.0.50"
LATE_VIP = "10.0.0.60"
SKEW = 3.5


class Segment:
    """h0–h7 on one LAN, with every kind of recipient the routine meets.

    h2's clock is skewed, h3's NIC is down, h4 is dead, h5 and h6 both
    have ``VIP`` bound (a duplicate, so a request draws two replies and
    an announcement a conflict at each), h8 has a second NIC on another
    segment and ``VIP`` bound *there* (it owns the address without
    answering for it on this one), the rest are plain.
    """

    def __init__(self, per_recipient):
        self.sim = Simulation(seed=4)
        self.lan = Lan(self.sim, "lan0", "10.0.0.0/24")
        if per_recipient:
            self.lan._deliver_batch = self._deliver_one_by_one
        self.capture = PacketCapture(self.lan)
        self.hosts = []
        for index in range(9):
            host = Host(self.sim, "h{}".format(index))
            host.add_nic(self.lan, "10.0.0.{}".format(1 + index))
            self.hosts.append(host)
        self.conflicts = []
        self.hosts[2].set_clock_skew(SKEW)
        self.hosts[3].nics[0].set_up(False)
        self.hosts[4].crash()
        other_lan = Lan(self.sim, "lan1", "10.0.0.0/16")
        self.hosts[8].add_nic(other_lan, "10.0.1.9").bind_ip(VIP)
        for index in (5, 6):
            self.hosts[index].nics[0].bind_ip(VIP)
        for index in (5, 6, 8):
            self.hosts[index].arp.on_vip_conflict = self.record_conflict(index)
        self.received = []
        self.hosts[1].open_udp(100, lambda p, s, d: self.received.append(p))

    @staticmethod
    def _deliver_one_by_one(frame, recipients):
        for nic in recipients:
            nic.deliver(frame)

    def record_conflict(self, index, then=None):
        def hook(ip, mac):
            self.conflicts.append(("h{}".format(index), str(ip), str(mac)))
            if then is not None:
                then()

        return hook

    def run_script(self):
        h0, h1, h7 = self.hosts[0], self.hosts[1], self.hosts[7]
        # A miss with two datagrams queued: broadcast request, unicast
        # reply, pending flush.
        h0.send_udp("a", "10.0.0.2", 100, src_port=1)
        h0.send_udp("b", "10.0.0.2", 100, src_port=1)
        self.sim.run_until_idle()
        # A request for the doubly bound address: two replies, in
        # recipient order.
        h7.send_udp("c", VIP, 100, src_port=1)
        self.sim.run_until_idle()
        # h1 claims the address h5 and h6 have bound.
        self.sim.run(until=2.0)
        h1.arp.announce(h1.nics[0], VIP)
        self.sim.run_until_idle()

    def run_mid_batch_script(self):
        """Claims whose hooks change a later recipient's bindings."""
        self.run_script()
        h1, h5, h6, h7 = (self.hosts[index] for index in (1, 5, 6, 7))
        # A claimant that has the address bound itself (h6 and h8 object).
        self.sim.run(until=3.0)
        h5.arp.announce(h5.nics[0], VIP)
        self.sim.run_until_idle()
        # h5's hook takes the address off h6, later in the same batch:
        # at its turn h6 owns nothing and believes the claim. Then h7
        # asks: one reply.
        self.sim.run(until=4.0)
        h5.arp.on_vip_conflict = self.record_conflict(5, lambda: h6.nics[0].unbind_ip(VIP))
        h1.arp.announce(h1.nics[0], VIP)
        self.sim.run_until_idle()
        h7.arp.cache.drop(VIP)
        h7.send_udp("d", VIP, 100, src_port=1)
        self.sim.run_until_idle()
        # A request claiming VIP and asking for an address nobody has
        # when the frame arrives: h5's hook binds it on h6, which
        # answers at its turn.
        self.sim.run(until=5.0)
        h5.arp.on_vip_conflict = self.record_conflict(5, lambda: h6.nics[0].bind_ip(LATE_VIP))
        nic = h1.nics[0]
        claim = ArpPacket(ArpOp.REQUEST, IPAddress(VIP), nic.mac, IPAddress(LATE_VIP))
        nic.transmit(EthernetFrame(nic.mac, BROADCAST_MAC, ARP_ETHERTYPE, claim))
        self.sim.run_until_idle()

    def caches(self):
        addresses = [LATE_VIP, VIP] + [str(host.nics[0].primary_ip) for host in self.hosts]
        return {
            host.name: {
                ip: tuple(entry)
                for ip in sorted(addresses)
                for entry in [host.arp.cache.peek(ip)]
                if entry is not None
            }
            for host in self.hosts
        }

    def observed(self):
        return {
            "caches": self.caches(),
            "wire": [repr(frame) for frame in self.capture.frames],
            "arp": [
                (h.arp.requests_sent, h.arp.replies_sent, h.arp.conflicts_seen, h.arp.cache.updates)
                for h in self.hosts
            ],
            "conflicts": self.conflicts,
            "received": self.received,
            "net": {
                k: v for k, v in self.sim.metrics.totals().items() if k.startswith("net.")
            },
            "trace": [repr(record) for record in self.sim.trace.records],
            "now": self.sim.now,
        }


def twins():
    batched, split = Segment(per_recipient=False), Segment(per_recipient=True)
    batched.run_script()
    split.run_script()
    return batched, split


def test_per_frame_receive_equals_one_receive_per_recipient():
    batched, split = twins()
    assert batched.observed() == split.observed()
    # The script did what it says (otherwise equality shows nothing).
    assert batched.received == ["a", "b"]
    wire = [frame.info.split(" ")[0] for frame in batched.capture.select(kind="arp")]
    assert wire == ["request", "reply", "request", "reply", "reply", "gratuitous-reply"]
    h5, h6 = batched.hosts[5], batched.hosts[6]
    replies = [frame.src_mac for frame in batched.capture.select(kind="arp")[3:5]]
    assert replies == [h5.nics[0].mac, h6.nics[0].mac]
    assert [h.arp.replies_sent for h in batched.hosts] == [0, 1, 0, 0, 0, 1, 1, 0, 0]


def test_conflict_hook_fires_and_the_claimant_is_not_cached():
    batched, _split = twins()
    claimant = str(batched.hosts[1].nics[0].mac)
    assert batched.conflicts == [
        ("h5", VIP, claimant),
        ("h6", VIP, claimant),
        ("h8", VIP, claimant),  # bound on its other segment only
    ]
    vip = IPAddress(VIP)
    for index in (5, 6, 8):
        assert batched.hosts[index].arp.conflicts_seen == 1
        assert batched.hosts[index].arp.cache.peek(vip) is None
    # Everyone else who heard the claim believes it.
    for index in (0, 2, 7):
        assert batched.hosts[index].arp.cache.lookup(VIP) == batched.hosts[1].nics[0].mac


def test_down_nic_and_dead_host_count_as_dropped_frames():
    batched, split = twins()
    totals = batched.sim.metrics.totals()
    # Three broadcasts, each reaching the down NIC (h3) and the dead host (h4).
    assert totals["net.broadcasts"] == 3
    assert totals["net.nic_dropped_frames"] == 6
    assert totals == split.sim.metrics.totals()
    for index in (3, 4):
        assert batched.caches()["h{}".format(index)] == {}


def test_zero_skew_receivers_share_one_entry_and_a_skewed_host_has_its_own():
    batched, split = twins()

    def entry_of(world, index):
        return world.hosts[index].arp.cache.peek(IPAddress("10.0.0.1"))

    # h0 sent one frame, its request: h1 (the target) and h5, h6, h7, h8
    # (who overheard it) all hold that frame's single entry object.
    shared = entry_of(batched, 1)
    assert type(shared) is ArpEntry
    assert all(entry_of(batched, index) is shared for index in (5, 6, 7, 8))
    skewed = entry_of(batched, 2)
    assert skewed is not shared
    assert skewed == (shared.mac, shared.updated_at + SKEW)
    # One receive per recipient: equal values, private objects.
    assert entry_of(split, 5) == shared and entry_of(split, 5) is not entry_of(split, 6)


def test_refreshing_one_hosts_entry_leaves_the_shared_one_alone():
    batched, _split = twins()
    h0_ip = IPAddress("10.0.0.1")
    before = batched.caches()
    shared = batched.hosts[5].arp.cache.peek(h0_ip)
    batched.sim.run(until=10.0)
    other_mac = batched.hosts[7].nics[0].mac
    batched.hosts[5].arp.cache.store(h0_ip, other_mac)
    after = batched.caches()
    assert after["h5"][str(h0_ip)] == (other_mac, 10.0)
    del before["h5"], after["h5"]
    assert after == before
    assert batched.hosts[6].arp.cache.peek(h0_ip) is shared
    assert shared == (batched.hosts[0].nics[0].mac, shared.updated_at)
    assert shared.updated_at < 1.0


def test_bindings_are_read_at_each_recipients_turn():
    batched, split = Segment(per_recipient=False), Segment(per_recipient=True)
    batched.run_mid_batch_script()
    split.run_mid_batch_script()
    assert batched.observed() == split.observed()
    h1_mac, h5_mac = (str(batched.hosts[index].nics[0].mac) for index in (1, 5))
    assert batched.conflicts[3:] == [
        # h5 claims what it has bound: the other two owners object.
        ("h6", VIP, h5_mac),
        ("h8", VIP, h5_mac),
        # h5's hook unbinds h6 before h6's turn.
        ("h5", VIP, h1_mac),
        ("h8", VIP, h1_mac),
        # The hand-made request: h6 owns nothing any more.
        ("h5", VIP, h1_mac),
        ("h8", VIP, h1_mac),
    ]
    h6 = batched.hosts[6]
    assert h6.arp.conflicts_seen == 2
    assert h6.arp.cache.lookup(VIP) == batched.hosts[1].nics[0].mac
    assert batched.received == ["a", "b"]  # h5 has no socket: "c" and "d" die there
    # h7's second request drew one reply (h5); the hand-made one drew
    # h6's, for the address bound while the frame was being received.
    wire = batched.capture.select(kind="arp")
    assert [frame.info.split(" ")[0] for frame in wire[6:]] == [
        "gratuitous-reply", "gratuitous-reply", "request", "reply", "request", "reply",
    ]
    assert [wire[9].src_mac, wire[11].src_mac] == [batched.hosts[5].nics[0].mac, h6.nics[0].mac]
    assert h6.nics[0].owns_ip(LATE_VIP) and not h6.nics[0].owns_ip(VIP)

"""Fan-out sends are order-identical to a loop of single sends.

``Host.send_udp_fanout`` / ``Lan.transmit_fanout`` may deliver a whole
destination list with one scheduler event. Every test here builds the
same world twice, sends the same list once as a fan-out and once as a
``send_udp`` loop, and requires the two worlds to be indistinguishable
from the wire up: delivery order and times at the receivers, the LAN's
frame counters, the ``net.*`` metric totals and every RNG draw.
"""

import pytest

from repro.net.addresses import IPAddress
from repro.net.arp import ArpService
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.linkfault import GilbertElliott
from repro.net.packet import IP_ETHERTYPE, EthernetFrame
from repro.net.partition import SegmentUplink, UplinkHost
from repro.sim.simulation import Simulation

PORT = 100
LAN_COUNTERS = (
    "frames_sent",
    "frames_delivered",
    "frames_lost",
    "frames_blocked",
    "frames_burst_lost",
    "frames_duplicated",
    "frames_reordered",
)


#: Lan -> the log of the world built on it (see ``log_arp_arrivals``).
WORLD_LOGS = {}


@pytest.fixture(autouse=True)
def log_arp_arrivals(monkeypatch):
    """Log each ARP arrival, by wrapping the one ARP receive routine."""

    def receive(packet, nics, receive=ArpService.receive):
        for nic in nics:
            if nic.up and nic.host.alive and nic.lan in WORLD_LOGS:
                WORLD_LOGS[nic.lan].append(
                    (nic.lan.sim.now, nic.host.name, "arp", packet.op)
                )
        receive(packet, nics)

    monkeypatch.setattr(ArpService, "receive", staticmethod(receive))
    yield
    WORLD_LOGS.clear()


class World:
    """One LAN, one sender (h0) and ``n - 1`` listening receivers."""

    def __init__(self, n=6, seed=5, **lan_kwargs):
        self.sim = Simulation(seed=seed)
        self.lan = Lan(self.sim, "lan0", "10.0.0.0/24", **lan_kwargs)
        self.log = WORLD_LOGS[self.lan] = []
        self.hosts = []
        for index in range(n):
            host = Host(self.sim, "h{}".format(index))
            host.add_nic(self.lan, "10.0.0.{}".format(1 + index))
            self._listen(host)
            self.hosts.append(host)
        self.sender = self.hosts[0]
        self.ips = ["10.0.0.{}".format(1 + index) for index in range(1, n)]

    def _listen(self, host):
        def on_datagram(payload, src, dst):
            # The address pairs ride along, so every comparison of two
            # worlds' logs also compares what the handlers were shown.
            self.log.append(
                (self.sim.now, host.name, "udp", payload, (str(src[0]), src[1]), (str(dst[0]), dst[1]))
            )

        host.open_udp(PORT, on_datagram)

    def warm_arp(self):
        """Resolve every receiver once, so later sends hit the cache."""
        for ip in self.ips:
            self.sender.send_udp("warm", ip, PORT, src_port=9)
        self.sim.run_until_idle()
        del self.log[:]
        self.warm_frames = (self.lan.frames_sent, self.lan.frames_delivered)

    def send(self, mode, payload, ips):
        if mode == "fanout":
            self.sender.send_udp_fanout(payload, ips, PORT, src_port=9)
        else:
            for ip in ips:
                self.sender.send_udp(payload, ip, PORT, src_port=9)

    def observed(self):
        """Everything the two send modes must agree on."""
        totals = self.sim.metrics.totals()
        return {
            "log": list(self.log),
            "lan": {name: getattr(self.lan, name) for name in LAN_COUNTERS},
            "net": {k: v for k, v in totals.items() if k.startswith("net.")},
            "dropped": [host.packets_dropped for host in self.hosts],
            "trace": [repr(record) for record in self.sim.trace.records],
        }


def twins(prepare=None, then=None, ips=None, **world_kwargs):
    """(fan-out world, loop world) after the same script in each."""
    worlds = []
    for mode in ("fanout", "loop"):
        world = World(**world_kwargs)
        world.warm_arp()
        if prepare is not None:
            prepare(world)
        world.send(mode, "x", world.ips if ips is None else ips)
        if then is not None:
            then(world)
        world.sim.run_until_idle()
        worlds.append(world)
    return worlds


# ----------------------------------------------------------------------
# (a) the batched path


def test_fanout_matches_loop_and_uses_one_event():
    batched, looped = twins()
    assert batched.observed() == looped.observed()
    assert [entry[1] for entry in batched.log] == ["h1", "h2", "h3", "h4", "h5"]
    # Each handler was shown the sender and the address it was sent to.
    assert [entry[4:] for entry in batched.log] == [
        (("10.0.0.1", 9), (ip, PORT)) for ip in batched.ips
    ]
    # Same deliveries, one scheduler event instead of one per frame.
    fired = batched.sim.scheduler.events_fired
    assert looped.sim.scheduler.events_fired - fired == len(batched.ips) - 1


def test_fanout_keeps_its_slot_among_same_instant_events():
    # A frame issued just before and one just after the burst, all due
    # at the same instant: the burst delivers between them.
    def before(world):
        world.hosts[1].send_udp("before", world.ips[1], PORT, src_port=9)

    def after(world):
        world.hosts[1].send_udp("after", world.ips[2], PORT, src_port=9)

    def warm_second_sender(world):
        for ip in world.ips[1:3]:
            world.hosts[1].send_udp("warm", ip, PORT, src_port=9)
        world.sim.run_until_idle()
        del world.log[:]
        before(world)

    batched, looped = twins(prepare=warm_second_sender, then=after)
    assert batched.observed() == looped.observed()
    payloads = [entry[3] for entry in batched.log]
    assert payloads == ["before"] + ["x"] * 5 + ["after"]


def test_send_udp_is_the_one_destination_fanout():
    batched, looped = twins(ips=["10.0.0.3"])
    assert batched.observed() == looped.observed()
    assert batched.sim.scheduler.events_fired == looped.sim.scheduler.events_fired


def _drop_arp_entry(world):
    world.sender.arp.cache.drop(world.ips[2])


def _sender_nic_down(world):
    world.sender.nics[0].set_up(False)


#: send_udp takes its own path, not the fan-out's: each way a single
#: datagram can leave (or not), with what the sender must show for it.
ONE_DESTINATION = {
    "broadcast": ("10.0.0.255", None, lambda world: len(world.log) == 5),
    # The request at the five others, the reply at the sender, the datagram.
    "arp-miss": (
        "10.0.0.4",
        _drop_arp_entry,
        lambda world: [entry[2] for entry in world.log] == ["arp"] * 6 + ["udp"],
    ),
    "no-route": (
        "172.16.0.9",
        None,
        lambda world: world.sim.trace.last(category="ip", event="no_route") is not None,
    ),
    "nic-down": ("10.0.0.3", _sender_nic_down, lambda world: world.sender.packets_dropped == 1),
}


@pytest.mark.parametrize("case", sorted(ONE_DESTINATION))
def test_one_destination_send_udp_matches_a_fanout_of_one(case):
    ip, prepare, shown = ONE_DESTINATION[case]
    batched, looped = twins(prepare=prepare, ips=[ip])
    assert batched.observed() == looped.observed()
    assert batched.sim.scheduler.events_fired == looped.sim.scheduler.events_fired
    assert shown(looped)


# ----------------------------------------------------------------------
# (b) knobs: every RNG draw stays where the loop made it


def _gilbert_elliott(world):
    world.lan.add_link_model(GilbertElliott(p_good_to_bad=0.4, loss_bad=0.8))


def _directed_block(world):
    world.lan.block_direction(world.sender, world.hosts[3])


KNOBS = {
    "loss": dict(world=dict(loss=0.4)),
    "jitter": dict(world=dict(jitter=0.01)),
    "loss+jitter": dict(world=dict(loss=0.3, jitter=0.005)),
    "gilbert-elliott": dict(prepare=_gilbert_elliott),
    "duplication": dict(prepare=lambda world: world.lan.set_duplication(0.5)),
    "reordering": dict(prepare=lambda world: world.lan.set_reordering(0.5, 0.01)),
    "directed-block": dict(prepare=_directed_block),
}


@pytest.mark.parametrize("knob", sorted(KNOBS))
def test_fanout_under_a_knob_draws_what_the_loop_drew(knob):
    spec = KNOBS[knob]
    worlds = []
    for mode in ("fanout", "loop"):
        world = World(n=8, seed=11, **spec.get("world", {}))
        world.warm_arp()
        if "prepare" in spec:
            spec["prepare"](world)
        # Three rounds, so a draw the fan-out skipped or added in round
        # one would shift every later decision.
        for payload in ("x", "y", "z"):
            world.send(mode, payload, world.ips)
            world.sim.run_until_idle()
        # The next draw of each stream is the same only if the counts were.
        world.next_draws = (
            world.lan._rng.random(),
            world.lan._gray_rng.random() if world.lan._gray_rng else None,
        )
        worlds.append(world)
    batched, looped = worlds
    assert batched.observed() == looped.observed()
    assert batched.next_draws == looped.next_draws
    assert batched.sim.scheduler.events_fired == looped.sim.scheduler.events_fired
    if knob == "directed-block":
        assert batched.lan.frames_blocked == 3
        assert "h3" not in {entry[1] for entry in batched.log}
    elif knob != "jitter":
        # The knob actually bit (otherwise the test shows nothing).
        lan = batched.lan
        assert lan.frames_lost or lan.frames_duplicated or lan.frames_reordered


# ----------------------------------------------------------------------
# (c) an ARP miss in the middle of the list


@pytest.mark.parametrize("how", ["dropped", "expired"])
def test_arp_miss_mid_list_keeps_frame_order(how):
    def lose(world):
        cache = world.sender.arp.cache
        if how == "dropped":
            cache.drop(world.ips[2])
        else:
            # Stored again on a clock 1000 s behind: the same MAC, aged out.
            ip = IPAddress(world.ips[2])
            world.sender.clock_skew = -1000.0
            cache.store(ip, cache.peek(ip).mac)
            world.sender.clock_skew = 0.0

    batched, looped = twins(prepare=lose)
    assert batched.observed() == looped.observed()
    # Wire order: the two frames ahead of the miss, the ARP request to
    # everyone, the two frames behind it; the queued datagram follows
    # the reply.
    kinds = [(entry[1], entry[2]) for entry in batched.log]
    assert kinds[:2] == [("h1", "udp"), ("h2", "udp")]
    assert kinds[2:7] == [("h{}".format(i), "arp") for i in range(1, 6)]
    assert kinds[7:9] == [("h4", "udp"), ("h5", "udp")]
    assert kinds[-1] == ("h3", "udp")
    assert batched.sender.arp.requests_sent == looped.sender.arp.requests_sent


# ----------------------------------------------------------------------
# (d) down NIC, dead host


def test_down_nic_drops_the_whole_burst():
    world = World()
    nic = world.sender.nics[0]
    frames = [
        EthernetFrame(nic.mac, host.nics[0].mac, IP_ETHERTYPE, None)
        for host in world.hosts[1:]
    ]
    nic.set_up(False)
    nic.transmit_fanout(frames)
    world.sim.run_until_idle()
    totals = world.sim.metrics.totals()
    assert totals["net.nic_dropped_frames"] == len(frames)
    assert totals["net.nic_tx_frames"] == 0
    assert world.lan.frames_sent == 0


def test_host_with_down_nic_has_no_route_for_any_destination():
    def nic_down(world):
        world.sender.nics[0].set_up(False)

    batched, looped = twins(prepare=nic_down)
    assert batched.observed() == looped.observed()
    assert batched.sender.packets_dropped == len(batched.ips)
    assert batched.log == []


def test_dead_host_sends_nothing():
    def crash(world):
        world.sender.crash()

    batched, looped = twins(prepare=crash)
    assert batched.observed() == looped.observed()
    assert batched.lan.frames_sent == looped.lan.frames_sent
    assert batched.log == []


# ----------------------------------------------------------------------
# (e) partitions, dead receivers, unroutable and broadcast destinations


def test_partitioned_recipient_is_skipped_others_delivered():
    def split(world):
        world.lan.partition([[world.hosts[2]]])

    batched, looped = twins(prepare=split)
    assert batched.observed() == looped.observed()
    assert [entry[1] for entry in batched.log] == ["h1", "h3", "h4", "h5"]
    sent, delivered = batched.warm_frames
    assert batched.lan.frames_sent - sent == 5
    assert batched.lan.frames_delivered - delivered == 4


def test_receiver_dying_before_delivery_drops_only_its_frame():
    def kill_later(world):
        # Crash h2 after the burst is on the wire, before it lands.
        world.sim.after(world.lan.latency / 2, world.hosts[2].crash)

    batched, looped = twins(then=kill_later)
    assert batched.observed() == looped.observed()
    assert [entry[1] for entry in batched.log] == ["h1", "h3", "h4", "h5"]
    assert batched.sim.metrics.totals()["net.nic_dropped_frames"] == 1


def test_broadcast_and_unroutable_destinations_mid_list():
    ips = ["10.0.0.2", "10.0.0.3", "10.0.0.255", "172.16.0.9", "10.0.0.5", "10.0.0.6"]
    batched, looped = twins(ips=ips)
    assert batched.observed() == looped.observed()
    assert [entry[1] for entry in batched.log] == [
        "h1", "h2", "h1", "h2", "h3", "h4", "h5", "h4", "h5",
    ]
    assert batched.sender.packets_dropped == 1
    assert batched.sim.trace.last(category="ip", event="no_route") is not None


# ----------------------------------------------------------------------
# (f) UplinkHost: cross-cell destinations keep their envelope numbers


def _uplink_world(mode, ips=None):
    sim = Simulation(seed=2)
    lan = Lan(sim, "seg00", "10.32.0.0/16")
    addresses = {}
    for cell in range(3):
        for slot in range(3):
            ip = "10.32.{}.{}".format(1 + cell, 1 + slot)
            addresses[(cell, slot)] = ip
    cell_of_ip = {IPAddress(ip): cell for (cell, _slot), ip in addresses.items()}
    uplink = SegmentUplink(sim, 0.025, cell_of_ip)
    log = []
    hosts = []
    for slot in range(3):
        host = UplinkHost(sim, "n{}".format(slot), uplink, 0)
        host.add_nic(lan, addresses[(0, slot)])
        uplink.attach_host(host, addresses[(0, slot)])
        host.open_udp(
            PORT, lambda p, s, d, name=host.name: log.append((sim.now, name, p))
        )
        hosts.append(host)
    sender = hosts[0]
    # Intra-cell, cross-cell and intra-cell again, interleaved.
    ips = ips or [
        addresses[(0, 1)],
        addresses[(1, 0)],
        addresses[(2, 2)],
        addresses[(0, 2)],
        addresses[(1, 1)],
    ]
    for round_payload in ("warm", "x", "y"):
        if mode == "fanout":
            sender.send_udp_fanout(round_payload, ips, PORT, src_port=9)
        else:
            for ip in ips:
                sender.send_udp(round_payload, ip, PORT, src_port=9)
        sim.run_until_idle()
    return uplink.outbound, log, lan, uplink.counters(0)


def test_uplink_host_mixed_list_matches_loop():
    batched = _uplink_world("fanout")
    looped = _uplink_world("loop")
    assert batched[0] == looped[0]
    assert [envelope[2] for envelope in batched[0]] == list(range(9))
    assert [envelope[3] for envelope in batched[0]] == [1, 2, 1] * 3
    assert batched[1] == looped[1]
    assert [entry[1:] for entry in batched[1][-2:]] == [("n1", "y"), ("n2", "y")]
    assert batched[2].frames_sent == looped[2].frames_sent
    assert batched[2].frames_delivered == looped[2].frames_delivered
    assert batched[3] == looped[3] == {"sent": 9, "delivered": 0, "dropped": 0}


def test_uplink_host_single_cross_cell_send_leaves_as_an_envelope():
    batched = _uplink_world("fanout", ips=["10.32.2.1"])
    looped = _uplink_world("loop", ips=["10.32.2.1"])
    assert batched[0] == looped[0]
    assert [envelope[3] for envelope in looped[0]] == [1, 1, 1]
    assert looped[2].frames_sent == 0
    assert batched[3] == looped[3] == {"sent": 3, "delivered": 0, "dropped": 0}

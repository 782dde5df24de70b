"""A fan-out is one subnet broadcast, and reaches what a unicast loop did.

A segment leader sends its ``LeaderBeacon`` as one datagram to its
LAN's broadcast address, where it used to send one unicast per member.
The twin tests here build the same world twice, send one payload once
as that broadcast and once as a ``send_udp`` loop over the receivers,
and require the receivers to be indistinguishable: who hears it, when,
in which order among same-instant events, what every gray knob drops,
and the next draw of every RNG stream. Only the frame count (one
instead of one per receiver), the events it takes and the destination
the handlers are shown may differ.

The rest hold ``send_udp`` itself: ARP misses keep frame order, and a
dead host or a host with no up NIC sends nothing.
"""

import pytest

from repro.net.addresses import IPAddress
from repro.net.arp import ArpService
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.linkfault import GilbertElliott
from repro.sim.simulation import Simulation

PORT = 100
BROADCAST = "10.0.0.255"
#: The LAN counters a broadcast and the loop must agree on (all but
#: ``frames_sent``: one frame against one per receiver).
LAN_COUNTERS = (
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
        self.shown = []
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
            self.log.append((self.sim.now, host.name, "udp", payload, (str(src[0]), src[1])))
            self.shown.append((str(dst[0]), dst[1]))

        host.open_udp(PORT, on_datagram)

    def warm_arp(self):
        """Resolve every receiver once, so later unicasts hit the cache."""
        for ip in self.ips:
            self.sender.send_udp("warm", ip, PORT, src_port=9)
        self.sim.run_until_idle()
        del self.log[:]
        del self.shown[:]
        self.warm_frames = (self.lan.frames_sent, self.lan.frames_delivered)
        self.warm_events = self.sim.scheduler.events_fired

    def send(self, mode, payload, ips=None):
        if mode == "broadcast":
            self.sender.send_udp(payload, BROADCAST, PORT, src_port=9)
        else:
            for ip in self.ips if ips is None else ips:
                self.sender.send_udp(payload, ip, PORT, src_port=9)

    def observed(self):
        """Everything a broadcast and the loop must agree on."""
        return {
            "log": list(self.log),
            "lan": {name: getattr(self.lan, name) for name in LAN_COUNTERS},
            "rx": self.sim.metrics.totals().get("net.nic_rx_frames"),
            "dropped": [host.packets_dropped for host in self.hosts],
            "trace": [repr(record) for record in self.sim.trace.records],
        }


def twins(prepare=None, then=None, **world_kwargs):
    """(broadcast world, loop world) after the same script in each."""
    worlds = []
    for mode in ("broadcast", "loop"):
        world = World(**world_kwargs)
        world.warm_arp()
        if prepare is not None:
            prepare(world)
        world.send(mode, "x")
        if then is not None:
            then(world)
        world.sim.run_until_idle()
        worlds.append(world)
    return worlds


# ----------------------------------------------------------------------
# (a) one broadcast against the unicast loop


def test_fanout_matches_loop_and_uses_one_event():
    batched, looped = twins()
    assert batched.observed() == looped.observed()
    assert [entry[1] for entry in batched.log] == ["h1", "h2", "h3", "h4", "h5"]
    # Each handler was shown the sender, and the address it was sent to.
    assert batched.shown == [(BROADCAST, PORT)] * 5
    assert looped.shown == [(ip, PORT) for ip in looped.ips]
    # One frame and one scheduler event instead of one per receiver.
    assert batched.lan.frames_sent - batched.warm_frames[0] == 1
    fired = batched.sim.scheduler.events_fired
    assert looped.sim.scheduler.events_fired - fired == len(batched.ips) - 1


def test_fanout_keeps_its_slot_among_same_instant_events():
    # A frame issued just before and one just after the broadcast, all
    # due at the same instant: the broadcast delivers between them.
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


# ----------------------------------------------------------------------
# (b) knobs: every RNG draw stays where the loop made it


def _gilbert_elliott(world):
    world.lan.add_link_model(GilbertElliott(p_good_to_bad=0.4, loss_bad=0.8))


def _directed_block(world):
    world.lan.block_direction(world.sender, world.hosts[3])


def _lossy(loss):
    # Set after the warm-up: a lost ARP reply would leave the loop a
    # miss to resolve, which the broadcast never has.
    def prepare(world):
        world.lan.loss = loss

    return prepare


KNOBS = {
    "loss": dict(prepare=_lossy(0.4)),
    "jitter": dict(world=dict(jitter=0.01)),
    "loss+jitter": dict(world=dict(jitter=0.005), prepare=_lossy(0.3)),
    "gilbert-elliott": dict(prepare=_gilbert_elliott),
    "duplication": dict(prepare=lambda world: world.lan.set_duplication(0.5)),
    "reordering": dict(prepare=lambda world: world.lan.set_reordering(0.5, 0.01)),
    "directed-block": dict(prepare=_directed_block),
}


@pytest.mark.parametrize("knob", sorted(KNOBS))
def test_fanout_under_a_knob_draws_what_the_loop_drew(knob):
    spec = KNOBS[knob]
    worlds = []
    for mode in ("broadcast", "loop"):
        world = World(n=8, seed=11, **spec.get("world", {}))
        world.warm_arp()
        if "prepare" in spec:
            spec["prepare"](world)
        # Three rounds, so a draw the broadcast skipped or added in
        # round one would shift every later decision.
        for payload in ("x", "y", "z"):
            world.send(mode, payload)
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
    # One event per frame and delivery instant: the broadcast's receivers
    # due at one instant share an event, each unicast frame has its own.
    fired = [world.sim.scheduler.events_fired - world.warm_events for world in worlds]
    assert fired[0] == len({(entry[0], entry[3]) for entry in batched.log})
    assert fired[1] == len({(entry[0], entry[1], entry[3]) for entry in looped.log})
    if knob == "directed-block":
        assert batched.lan.frames_blocked == 3
        assert "h3" not in {entry[1] for entry in batched.log}
    elif knob != "jitter":
        # The knob actually bit (otherwise the test shows nothing).
        lan = batched.lan
        assert lan.frames_lost or lan.frames_duplicated or lan.frames_reordered


# ----------------------------------------------------------------------
# (c) partitions, dead receivers, dead senders, down NICs


def test_partitioned_recipient_is_skipped_others_delivered():
    def split(world):
        world.lan.partition([[world.hosts[2]]])

    batched, looped = twins(prepare=split)
    assert batched.observed() == looped.observed()
    assert [entry[1] for entry in batched.log] == ["h1", "h3", "h4", "h5"]
    _sent, delivered = batched.warm_frames
    assert batched.lan.frames_delivered - delivered == 4


def test_receiver_dying_before_delivery_drops_only_its_frame():
    def kill_later(world):
        # Crash h2 after the frames are on the wire, before they land.
        world.sim.after(world.lan.latency / 2, world.hosts[2].crash)

    batched, looped = twins(then=kill_later)
    assert batched.observed() == looped.observed()
    assert [entry[1] for entry in batched.log] == ["h1", "h3", "h4", "h5"]
    assert batched.sim.metrics.totals()["net.nic_dropped_frames"] == 1


def test_dead_host_sends_nothing():
    def crash(world):
        world.sender.crash()

    batched, looped = twins(prepare=crash)
    assert batched.observed() == looped.observed()
    for world in (batched, looped):
        assert world.lan.frames_sent == world.warm_frames[0]
    assert batched.log == []


def test_host_with_down_nic_has_no_route_for_any_destination():
    def nic_down(world):
        world.sender.nics[0].set_up(False)

    batched, looped = twins(prepare=nic_down)
    assert batched.sender.packets_dropped == 1  # the broadcast address too
    assert looped.sender.packets_dropped == len(looped.ips)
    assert batched.log == looped.log == []
    assert batched.sim.trace.last(category="ip", event="no_route") is not None


# ----------------------------------------------------------------------
# (d) send_udp on its own: each way a datagram leaves, or does not


def _drop_arp_entry(world):
    world.sender.arp.cache.drop(world.ips[2])


def _sender_nic_down(world):
    world.sender.nics[0].set_up(False)


#: Each way a single datagram can leave (or not), with what the sender
#: must show for it.
ONE_DESTINATION = {
    "broadcast": (BROADCAST, None, lambda world: len(world.log) == 5),
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
def test_one_destination_send_udp_shows_how_it_left(case):
    ip, prepare, shown = ONE_DESTINATION[case]
    world = World()
    world.warm_arp()
    if prepare is not None:
        prepare(world)
    world.send("loop", "x", [ip])
    world.sim.run_until_idle()
    assert shown(world)


@pytest.mark.parametrize("how", ["dropped", "expired"])
def test_arp_miss_mid_list_keeps_frame_order(how):
    world = World()
    world.warm_arp()
    cache = world.sender.arp.cache
    if how == "dropped":
        cache.drop(world.ips[2])
    else:
        # Stored again on a clock 1000 s behind: the same MAC, aged out.
        ip = IPAddress(world.ips[2])
        world.sender.clock_skew = -1000.0
        cache.store(ip, cache.peek(ip).mac)
        world.sender.clock_skew = 0.0
    requests = world.sender.arp.requests_sent
    world.send("loop", "x")
    world.sim.run_until_idle()
    # Wire order: the two frames ahead of the miss, the ARP request to
    # everyone, the two frames behind it; the queued datagram follows
    # the reply.
    kinds = [(entry[1], entry[2]) for entry in world.log]
    assert kinds[:2] == [("h1", "udp"), ("h2", "udp")]
    assert kinds[2:7] == [("h{}".format(i), "arp") for i in range(1, 6)]
    assert kinds[7:9] == [("h4", "udp"), ("h5", "udp")]
    assert kinds[-1] == ("h3", "udp")
    assert world.sender.arp.requests_sent == requests + 1


def test_broadcast_and_unroutable_destinations_mid_list():
    ips = ["10.0.0.2", "10.0.0.3", BROADCAST, "172.16.0.9", "10.0.0.5", "10.0.0.6"]
    world = World()
    world.warm_arp()
    world.send("loop", "x", ips)
    world.sim.run_until_idle()
    assert [entry[1] for entry in world.log] == [
        "h1", "h2", "h1", "h2", "h3", "h4", "h5", "h4", "h5",
    ]
    assert world.sender.packets_dropped == 1
    assert world.sim.trace.last(category="ip", event="no_route") is not None

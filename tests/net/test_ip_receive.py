"""One IP receive per frame equals one receive per recipient.

``Host.receive_ip`` takes a frame's whole recipient tuple from one
batched LAN event; what the packet says is read once, what a recipient
says at its turn. Each test builds the same segment twice — once as
shipped, once with the LAN's batch split into one ``Nic.deliver`` (the
routine's one-NIC case) per recipient — runs the same script in both,
and requires the two to be indistinguishable: handler calls, socket and
host counters, NIC counters, event times, RNG positions, trace.
"""

from repro.net.addresses import BROADCAST_MAC, IPAddress
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.packet import IP_ETHERTYPE, EthernetFrame, IpPacket, UdpDatagram
from repro.net.router import Router
from repro.sim.simulation import Simulation

PORT = 100
VIP = "10.0.0.50"
BROADCAST_IP = "10.0.0.255"
FAR_IP = "10.1.0.9"
LOAD_MEAN = 0.004

#: name -> what makes it a different kind of recipient (attach order is
#: recipient order; h0 is the sender).
RECIPIENTS = (
    "wild",  # up host, wildcard socket
    "vip",  # VIP bound, socket bound to the VIP
    "other",  # VIP bound, socket on the same port bound to its primary
    "reopened",  # VIP bound, a closed socket ahead of an open one
    "mute",  # no socket
    "nic_down",
    "crashed",
    "router",  # forwards what is not its own
    "slow",  # set_slowdown: delivery lags
    "loaded",  # set_load: delivery waits an exponential draw
    "realtime",  # loaded and slow, realtime socket: waits for neither
    "wild2",  # a second plain one, behind all of the above
)


class Segment:
    """One LAN with every kind of recipient the routine meets, in one tuple."""

    def __init__(self, per_recipient):
        self.sim = Simulation(seed=6)
        self.lan = Lan(self.sim, "lan0", "10.0.0.0/24")
        self.far = Lan(self.sim, "lan1", "10.1.0.0/24")
        if per_recipient:
            self.lan._deliver_batch = self._deliver_one_by_one
        self.calls = []
        self.sockets = {}
        self._next_draws = None
        self.sender = Host(self.sim, "h0")
        self.sender.add_nic(self.lan, "10.0.0.1")
        self.hosts = {}
        for index, name in enumerate(RECIPIENTS, start=2):
            host = (Router if name == "router" else Host)(self.sim, name)
            host.add_nic(self.lan, "10.0.0.{}".format(index))
            self.hosts[name] = host
        hosts = self.hosts
        for name in ("wild", "slow", "loaded", "wild2", "router"):
            self._listen(name)
        for name in ("vip", "other", "reopened"):
            hosts[name].nics[0].bind_ip(VIP)
        self._listen("vip", bind_ip=VIP)
        self._listen("other", bind_ip=hosts["other"].nics[0].primary_ip)
        # Closed but still listed, as a socket is between a mid-batch
        # close and the end of the loop that is walking the list.
        self._listen("reopened", key="reopened/closed", bind_ip=VIP).closed = True
        self._listen("reopened")
        self._listen("realtime", realtime=True)
        hosts["nic_down"].nics[0].set_up(False)
        self._listen("nic_down")
        self._listen("crashed")
        hosts["crashed"].crash()
        hosts["router"].add_nic(self.far, "10.1.0.1")
        self.far_host = Host(self.sim, "far")
        self.far_host.add_nic(self.far, FAR_IP)
        self.far_host.set_default_gateway("10.1.0.1")
        self.hosts["far"] = self.far_host
        self._listen("far")
        hosts["slow"].set_slowdown(3.0)
        hosts["loaded"].set_load(LOAD_MEAN)
        hosts["realtime"].set_load(LOAD_MEAN)
        hosts["realtime"].set_slowdown(2.0)

    @staticmethod
    def _deliver_one_by_one(frame, recipients):
        for nic in recipients:
            nic.deliver(frame)

    def _listen(self, name, key=None, **socket_kwargs):
        def on_datagram(payload, src, dst):
            self.calls.append(
                (self.sim.now, key or name, payload, (str(src[0]), src[1]), (str(dst[0]), dst[1]))
            )
            hook = self.hooks.get((name, payload))
            if hook is not None:
                hook()

        socket = self.hosts[name].open_udp(PORT, on_datagram, **socket_kwargs)
        self.sockets[key or name] = socket
        return socket

    #: (recipient, payload) -> callable run inside that recipient's handler.
    hooks = {}

    def to_everyone(self, dst_ip, payload, port=PORT):
        """One frame to the whole segment, whatever its IP destination."""
        nic = self.sender.nics[0]
        packet = IpPacket(nic.primary_ip, IPAddress(dst_ip), payload)
        if port is not None:
            packet.payload = UdpDatagram(9, port, payload)
        nic.transmit(EthernetFrame(nic.mac, BROADCAST_MAC, IP_ETHERTYPE, packet))

    def run_script(self):
        self.to_everyone(BROADCAST_IP, "to-broadcast")
        self.to_everyone(VIP, "to-vip")
        self.to_everyone(FAR_IP, "to-far")
        self.to_everyone(BROADCAST_IP, "not-udp", port=None)
        self.to_everyone(BROADCAST_IP, "no-such-port", port=PORT + 1)
        # Just past the wire latency: the direct deliveries are made,
        # the lagged and loaded ones are scheduled and visible as such.
        self.sim.run(until=self.lan.latency * 1.5)
        self.scheduled = (
            self.sim.scheduler.pending_count,
            self.sim.scheduler.next_event_time(),
        )
        self.sim.run_until_idle()

    def next_draws(self):
        """The next draw of each load stream, taken once: it is the same
        in two worlds only if they drew the same number of times."""
        if self._next_draws is None:
            self._next_draws = {
                name: self.sim.rng.stream("load/{}".format(name)).random()
                for name in ("loaded", "realtime")
            }
        return self._next_draws

    def observed(self):
        hosts = self.hosts.values()
        return {
            "calls": list(self.calls),
            "received": {key: socket.received for key, socket in self.sockets.items()},
            "dropped": {host.name: host.packets_dropped for host in hosts},
            "forwarded": {host.name: host.packets_forwarded for host in hosts},
            "net": {
                k: v for k, v in self.sim.metrics.totals().items() if k.startswith("net.")
            },
            "scheduled": self.scheduled,
            "events_fired": self.sim.scheduler.events_fired,
            "next_draws": self.next_draws(),
            "trace": [repr(record) for record in self.sim.trace.records],
            "now": self.sim.now,
        }


def twins(hooks=None, script=Segment.run_script):
    worlds = []
    for per_recipient in (False, True):
        world = Segment(per_recipient)
        world.hooks = hooks(world) if hooks is not None else {}
        script(world)
        worlds.append(world)
    return worlds


def names(world, payload):
    return [call[1] for call in world.calls if call[2] == payload]


def test_per_frame_receive_equals_one_receive_per_recipient():
    batched, split = twins()
    assert batched.observed() == split.observed()
    # The script did what it says (otherwise equality shows nothing).
    latency = batched.lan.latency
    direct = [call for call in batched.calls if call[0] == latency]
    assert [(call[1], call[2]) for call in direct] == [
        ("wild", "to-broadcast"),
        ("reopened", "to-broadcast"),
        ("router", "to-broadcast"),
        ("realtime", "to-broadcast"),
        ("wild2", "to-broadcast"),
        ("vip", "to-vip"),
        ("reopened", "to-vip"),
    ]
    # Every handler saw the sender and the address the frame named.
    for call in batched.calls:
        assert call[3] == ("10.0.0.1", 9)
    assert {call[4] for call in batched.calls if call[2] == "to-broadcast"} == {
        (BROADCAST_IP, PORT)
    }
    assert {call[4] for call in batched.calls if call[2] == "to-vip"} == {(VIP, PORT)}
    # Lagged by the slowdown, delayed by a draw from the host's own stream.
    late = {call[1]: call[0] for call in batched.calls if call[2] == "to-broadcast"}
    assert late["slow"] == latency + 0.001 * (3.0 - 1.0)
    assert late["loaded"] > latency
    assert batched.scheduled[0] >= 2
    reference = Simulation(seed=6).rng.stream("load/loaded")
    assert late["loaded"] == latency + reference.expovariate(1.0 / LOAD_MEAN)
    # The realtime socket's host never drew.
    assert batched.next_draws()["realtime"] == (
        Simulation(seed=6).rng.stream("load/realtime").random()
    )
    # The router forwarded the two packets that were not its own: the
    # far host got one, and the VIP's owners a routed copy of the other
    # (behind an ARP exchange, so later than the copy they took directly).
    assert batched.hosts["router"].packets_forwarded == 2
    assert names(batched, "to-far") == ["far"]
    assert names(batched, "to-vip")[:2] == ["vip", "reopened"]
    assert len(names(batched, "to-vip")) == 3
    # Five frames: no socket at all (mute) drops four of them — the
    # fifth was not for it either, and it does not forward.
    assert batched.hosts["mute"].packets_dropped == 5
    # "other" listens on the port, but on another address: nothing.
    assert batched.sockets["other"].received == 0
    assert batched.sockets["reopened/closed"].received == 0
    assert batched.sockets["nic_down"].received == 0
    assert batched.sockets["crashed"].received == 0
    totals = batched.sim.metrics.totals()
    # The five frames and the router's ARP request for the VIP, each
    # dropped at the down NIC and at the dead host's.
    assert totals["net.nic_dropped_frames"] == 2 * (5 + 1)
    assert names(batched, "not-udp") == []
    assert names(batched, "no-such-port") == []


def test_handler_crashing_a_later_recipient_is_honoured():
    def hooks(world):
        return {("wild", "x"): world.hosts["wild2"].crash}

    def script(world):
        world.to_everyone(BROADCAST_IP, "x")
        world.scheduled = None
        world.sim.run_until_idle()

    batched, split = twins(hooks, script)
    assert batched.observed() == split.observed()
    assert "wild" in names(batched, "x")
    assert "wild2" not in names(batched, "x")
    # Dropped at the NIC (dead host), not at the socket lookup.
    assert batched.hosts["wild2"].packets_dropped == 0
    assert batched.sim.metrics.totals()["net.nic_dropped_frames"] == 3


def test_handler_closing_a_later_recipients_socket_is_honoured():
    def hooks(world):
        return {("wild", "x"): world.sockets["wild2"].close}

    def script(world):
        world.to_everyone(BROADCAST_IP, "x")
        world.scheduled = None
        world.sim.run_until_idle()

    batched, split = twins(hooks, script)
    assert batched.observed() == split.observed()
    assert "wild2" not in names(batched, "x")
    assert batched.sockets["wild2"].received == 0
    assert batched.hosts["wild2"].packets_dropped == 1


def test_handler_unbinding_the_vip_from_a_later_nic_is_honoured():
    def hooks(world):
        return {
            ("vip", "x"): lambda: world.hosts["reopened"].nics[0].unbind_ip(VIP)
        }

    def script(world):
        world.hosts["router"].ip_forwarding = False  # no routed second copy
        world.to_everyone(VIP, "x")
        world.scheduled = None
        world.sim.run_until_idle()

    batched, split = twins(hooks, script)
    assert batched.observed() == split.observed()
    # "other" still has the address (and no socket for it); "reopened"
    # lost it one recipient before its turn and never saw the packet.
    assert names(batched, "x") == ["vip"]
    assert batched.hosts["other"].packets_dropped == 1
    assert batched.hosts["reopened"].packets_dropped == 1
    assert batched.sockets["reopened"].received == 0


def test_recipients_on_two_lans_each_get_their_own_broadcast_answer():
    # No LAN builds such a tuple; the routine must not assume it.
    world = Segment(per_recipient=False)
    far_nic = world.far_host.nics[0]
    near_nic = world.hosts["wild"].nics[0]
    packet = IpPacket(IPAddress("10.0.0.1"), IPAddress(BROADCAST_IP), UdpDatagram(9, PORT, "x"))
    Host.receive_ip(packet, (near_nic, far_nic, world.hosts["wild2"].nics[0]))
    assert names(world, "x") == ["wild", "wild2"]
    assert world.far_host.packets_dropped == 1


def test_deferred_delivery_to_a_socket_closed_meanwhile_is_dropped():
    # UdpSocket.deliver survives as the target of the two deferred
    # deliveries; its closed check is what they rely on.
    sim = Simulation(seed=1)
    lan = Lan(sim, "lan0", "10.0.0.0/24")
    sender = Host(sim, "a")
    sender.add_nic(lan, "10.0.0.1")
    loaded = Host(sim, "b")
    loaded.add_nic(lan, "10.0.0.2")
    loaded.set_load(0.01)
    got = []
    socket = loaded.open_udp(PORT, lambda payload, src, dst: got.append(payload))
    sender.send_udp("x", BROADCAST_IP, PORT)
    sim.run(until=lan.latency)
    assert sim.scheduler.pending_count == 1
    socket.close()
    sim.run_until_idle()
    assert got == []
    assert socket.received == 0

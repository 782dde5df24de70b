"""Simulated hosts: NICs, ARP, UDP sockets, and IP output routing.

A Host is the unit that crashes and recovers. Crash semantics: a
crashed host neither receives nor sends; its NICs stay attached to the
LAN (so stale ARP entries elsewhere keep blackholing traffic toward its
MACs — exactly the failure mode the paper's fail-over repairs).
"""

from repro.net.addresses import BROADCAST_MAC, IPAddress
from repro.net.arp import ArpService
from repro.net.nic import Nic
from repro.net.packet import (
    IP_ETHERTYPE,
    EthernetFrame,
    IpPacket,
    UdpDatagram,
)
from repro.net.sockets import UdpSocket
from repro.sim.process import Process


class Host(Process):
    """One machine on the simulated network."""

    def __init__(self, sim, name, arp_cache_lifetime=60.0):
        super().__init__(sim, name)
        self._nics = []
        self.clock_skew = 0.0
        self.arp = ArpService(self, cache_lifetime=arp_cache_lifetime)
        self._sockets = []
        self.default_gateway = None
        self.ip_forwarding = False
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self._services = []
        self._load_mean_delay = 0.0
        self._load_rng = None
        self._slow_delivery_lag = 0.0

    # ------------------------------------------------------------------
    # interfaces

    def add_nic(self, lan, primary_ip, name=None):
        """Attach a new interface on ``lan`` with a stationary address."""
        nic = Nic(self, lan, primary_ip, name=name)
        self._nics.append(nic)
        return nic

    @property
    def nics(self):
        """All interfaces (tuple snapshot)."""
        return tuple(self._nics)

    def nic_on(self, lan):
        """The interface attached to ``lan``, or None."""
        for nic in self._nics:
            if nic.lan is lan:
                return nic
        return None

    def _changed(self):
        # Liveness and slowdown are read off every LAN the host is on.
        for nic in self._nics:
            nic.lan.changes += 1

    def local_ips(self):
        """Every IP bound to an up interface."""
        addresses = set()
        for nic in self._nics:
            if nic.up:
                addresses.update(nic.bound_ips)
        return addresses

    def owns_ip(self, address):
        """True when ``address`` is bound to one of this host's up NICs."""
        if type(address) is not IPAddress:
            address = IPAddress(address)
        # Flat loop, no generator: the IP receive path asks this for every
        # packet not addressed to the receiving NIC (ARP asks it only of a
        # host with a second NIC, see ``ArpService.receive``).
        value = address._value
        for nic in self._nics:
            if nic.up and value in nic._bound:
                return True
        return False

    # ------------------------------------------------------------------
    # gray degradation: slowdown and clock skew (see docs/FAULTS.md)

    @property
    def local_time(self):
        """This host's wall clock: simulated time plus its skew offset."""
        return self.sim.now + self.clock_skew

    def set_clock_skew(self, offset):
        """Offset this host's local clock by ``offset`` seconds (±60 max).

        Skew only affects *readings* of the local clock (ARP cache
        aging, anything consulting :attr:`local_time`); timers measure
        durations, which skew does not change. The bound rejects
        nonsense offsets that no NTP-adrift machine would exhibit.
        """
        offset = float(offset)
        if not -60.0 <= offset <= 60.0:
            raise ValueError("clock skew must be within +/-60s, got {}".format(offset))
        self.clock_skew = offset
        self.trace("host", "clock_skew", offset=offset)

    def set_slowdown(self, factor):
        """Stretch this host's local timers by ``factor`` (1.0 = normal).

        Models a wedged-but-alive machine: every managed timer delay
        (heartbeats, timeouts, retries) of the host *and its registered
        services* runs ``factor`` times late, and user-space datagram
        delivery lags 1 ms per unit of extra stretch. The machine still
        answers ARP at full speed — the kernel is fine, the box is just
        slow — the gray failure a K-miss detector must ride out.
        """
        factor = float(factor)
        if factor < 1.0:
            raise ValueError("slowdown factor must be >= 1.0, got {}".format(factor))
        self.set_time_scale(factor)
        for service in self._services:
            service.set_time_scale(factor)
        self._slow_delivery_lag = 0.001 * (factor - 1.0)
        self._changed()
        self.trace("host", "slowdown", factor=factor)

    def set_load(self, mean_delay):
        """Model a loaded machine: user-space datagram delivery incurs
        an exponential scheduling delay with the given mean (seconds).

        Kernel work — ARP, IP forwarding — is unaffected, and sockets
        opened with ``realtime=True`` (real-time priority processes,
        §6) bypass the delay entirely. Zero disables the model.
        """
        self._load_mean_delay = float(mean_delay)
        if self._load_mean_delay > 0 and self._load_rng is None:
            self._load_rng = self.sim.rng.stream("load/{}".format(self.name))

    def set_default_gateway(self, gateway_ip):
        """Set the off-link next hop for destinations outside all subnets."""
        self.default_gateway = IPAddress(gateway_ip)

    # ------------------------------------------------------------------
    # crash / recovery

    def register_service(self, process):
        """Tie a daemon process's lifetime to this host (dies on crash).

        A service registered on a slowed host inherits the slowdown —
        a restarted daemon does not escape the sick machine it runs on.
        """
        self._services.append(process)
        if self.time_scale != 1.0:
            process.set_time_scale(self.time_scale)

    def crash(self):
        """Fail-stop: kill services and timers, stop receiving and sending.

        All sockets close (nothing survives a machine failure); daemons
        must be restarted explicitly after :meth:`recover`.
        """
        self.trace("host", "crash")
        for service in self._services:
            service.stop()
        self._services = []
        for socket in list(self._sockets):
            socket.closed = True
        self._sockets = []
        self.stop()
        self._changed()

    def recover(self):
        """Reboot: fresh ARP cache, interfaces reset to primaries only.

        A reboot clears a slowdown (the wedged software is gone) but
        not clock skew — the drifted hardware clock survives a reboot.
        """
        self.restart()
        self.set_time_scale(1.0)
        self._slow_delivery_lag = 0.0
        self.arp.reset()
        for nic in self._nics:
            nic.reset()
        self.trace("host", "recover")

    # ------------------------------------------------------------------
    # frame input

    def handle_frame(self, nic, frame):
        """Hook for frames that are neither ARP nor IP; the default drops them.

        :meth:`Nic.deliver` hands ARP frames to
        :meth:`ArpService.receive` and IP frames to :meth:`receive_ip`,
        after making the up/alive checks for everything else.
        """

    @staticmethod
    def receive_ip(packet, nics):
        """Receive one IP packet on each of ``nics``, in order.

        The whole IP receive path — NIC-level checks and counters,
        acceptance, forwarding, socket lookup and the hand-off to the
        application — in the shape of :meth:`ArpService.receive`: the
        LAN hands a broadcast's full recipient tuple here from one
        event and a unicast frame is the one-NIC case
        (:meth:`Nic.deliver`). What the *packet* says is read once —
        its destination, whether it carries UDP, the port, the payload,
        the two address pairs handlers are given (immutable, so one
        pair serves every recipient) and, per LAN, whether the
        destination is the subnet's broadcast address. What a
        *recipient* says (NIC and host up, bound addresses, forwarding,
        sockets, load and slowdown) is read at its turn, because a
        handler earlier in the batch may have changed it (DESIGN.md §8).
        """
        dst = packet.dst_ip
        dst_value = (dst if type(dst) is IPAddress else IPAddress(dst))._value
        datagram = packet.payload
        udp = type(datagram) is UdpDatagram
        if udp:
            dst_port = datagram.dst_port
            payload = datagram.payload
            src_pair = (packet.src_ip, datagram.src_port)
            dst_pair = (dst, dst_port)
        lan = None
        for nic in nics:
            host = nic.host
            if not nic.up or not host.alive:
                nic._m_dropped.inc()
                continue
            nic._m_rx.inc()
            if nic.lan is not lan:
                lan = nic.lan
                broadcast = None  # not asked yet on this LAN
            # Once a recipient has found the destination to be its
            # LAN's broadcast address the rest of the batch take it
            # without hashing an address; a unicast to an address
            # the receiving NIC has bound never asks.
            if not broadcast and dst_value not in nic._bound:
                if broadcast is None:
                    broadcast = dst == lan.subnet.broadcast_address
                if not (broadcast or host.owns_ip(dst)):
                    if host.ip_forwarding:
                        host.forward_packet(packet)
                    else:
                        host.packets_dropped += 1
                    continue
            if not udp:
                host.packets_dropped += 1
                continue
            for socket in host._sockets:
                if (
                    socket.port != dst_port
                    or socket.closed
                    or not (socket.bind_ip is None or socket.bind_ip == dst)
                ):
                    continue
                if socket.realtime or not (
                    host._slow_delivery_lag or host._load_mean_delay > 0
                ):
                    socket.received += 1
                    socket.handler(payload, src_pair, dst_pair)
                elif host._slow_delivery_lag:
                    host.sim.scheduler.after(
                        host._slow_delivery_lag,
                        host._deliver_socket,
                        socket,
                        datagram,
                        packet,
                    )
                else:
                    delay = host._load_rng.expovariate(1.0 / host._load_mean_delay)
                    host.sim.scheduler.after(
                        delay,
                        socket.deliver,
                        payload,
                        packet.src_ip,
                        datagram.src_port,
                        dst,
                    )
                break
            else:
                host.packets_dropped += 1

    def _deliver_socket(self, socket, datagram, packet):
        # Deferred user-space delivery on a slowed host; the socket may
        # have closed while the datagram sat in the (slow) run queue.
        if not self.alive or socket.closed:
            return
        socket.deliver(
            datagram.payload, packet.src_ip, datagram.src_port, packet.dst_ip
        )

    # ------------------------------------------------------------------
    # sockets and UDP output

    def open_udp(self, port, handler, bind_ip=None, realtime=False):
        """Bind a UDP socket; ``handler(payload, (src_ip, src_port), (dst_ip, dst_port))``."""
        for socket in self._sockets:
            if socket.port == port and socket.bind_ip == (
                IPAddress(bind_ip) if bind_ip is not None else None
            ):
                raise ValueError("port {} already bound on {}".format(port, self.name))
        socket = UdpSocket(self, port, handler, bind_ip=bind_ip, realtime=realtime)
        self._sockets.append(socket)
        return socket

    def release_socket(self, socket):
        """Remove a closed socket (called by UdpSocket.close)."""
        if socket in self._sockets:
            self._sockets.remove(socket)

    def send_udp(self, payload, dst_ip, dst_port, src_port=0, src_ip=None):
        """Build, route and transmit one UDP/IP packet."""
        if not self.alive:
            return
        if type(dst_ip) is not IPAddress:
            dst_ip = IPAddress(dst_ip)
        nic, next_hop = self._route(dst_ip)
        if nic is None:
            self.packets_dropped += 1
            self.trace("ip", "no_route", dst=str(dst_ip))
            return
        source = nic.primary_ip if src_ip is None else src_ip
        if source is None:
            self.packets_dropped += 1
            return
        if type(source) is not IPAddress:
            source = IPAddress(source)
        datagram = UdpDatagram(src_port, int(dst_port), payload)
        self._transmit(nic, next_hop, IpPacket(source, dst_ip, datagram))

    # ------------------------------------------------------------------
    # IP output routing

    def send_ip(self, packet):
        """Route an IP packet out of the correct interface."""
        if not self.alive:
            return
        dst = packet.dst_ip
        nic, next_hop = self._route(dst)
        if nic is None:
            self.packets_dropped += 1
            self.trace("ip", "no_route", dst=str(dst))
            return
        self._transmit(nic, next_hop, packet)

    def _broadcast_nic(self, dst_ip):
        """The up interface whose subnet broadcast address is ``dst_ip``."""
        for nic in self._nics:
            if nic.up and dst_ip == nic.lan.subnet.broadcast_address:
                return nic
        return None

    def _transmit(self, nic, next_hop, packet):
        """Put one routed packet on the wire: a subnet broadcast, or a unicast via ARP."""
        out = self._broadcast_nic(packet.dst_ip)
        if out is not None:
            out.transmit(EthernetFrame(out.mac, BROADCAST_MAC, IP_ETHERTYPE, packet))
            return
        mac = self.arp.cache.lookup(next_hop)
        if mac is None:
            self.arp.resolve_and_send(nic, next_hop, packet)
        else:
            nic.transmit(EthernetFrame(nic.mac, mac, IP_ETHERTYPE, packet))

    def forward_packet(self, packet):
        """Router-style forwarding hook; overridden to consult route tables."""
        if packet.ttl <= 1:
            self.packets_dropped += 1
            return
        self.packets_forwarded += 1
        self.send_ip(packet.forwarded_copy())

    def _route(self, dst_ip):
        """(nic, next_hop_ip) for ``dst_ip``: on-link beats gateway."""
        for nic in self._nics:
            if nic.up and dst_ip in nic.lan.subnet:
                return nic, dst_ip
        if self.default_gateway is not None:
            for nic in self._nics:
                if nic.up and self.default_gateway in nic.lan.subnet:
                    return nic, self.default_gateway
        return None, None

"""Packet capture: a tcpdump-style observer for the simulated LAN.

Attach a :class:`PacketCapture` to a segment to record every frame
(optionally filtered) with a one-line decoded summary — the debugging
workflow the paper's authors would have used on the real wire.

    capture = PacketCapture(lan, predicate=lambda f: f.ethertype == ARP_ETHERTYPE)
    ...run the scenario...
    print(capture.format())
"""

from repro.net.packet import ARP_ETHERTYPE, IP_ETHERTYPE, ArpOp, IpPacket, UdpDatagram


class CapturedFrame:
    """One recorded frame with its decoded summary."""

    __slots__ = ("time", "src_mac", "dst_mac", "kind", "info")

    def __init__(self, time, src_mac, dst_mac, kind, info):
        self.time = time
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.kind = kind
        self.info = info

    def __repr__(self):
        return "[{:10.4f}] {} > {} {}: {}".format(
            self.time, self.src_mac, self.dst_mac, self.kind, self.info
        )


class PacketCapture:
    """Records frames crossing one LAN segment."""

    def __init__(self, lan, predicate=None, capacity=10_000):
        self.lan = lan
        self.predicate = predicate
        self.capacity = capacity
        self.frames = []
        self.dropped = 0
        self._original_transmit = lan.transmit
        lan.transmit = self._tap
        self._running = True

    def stop(self):
        """Detach from the LAN (recorded frames are kept)."""
        if self._running:
            self.lan.transmit = self._original_transmit
            self._running = False

    def _tap(self, frame, src_nic):
        if self.predicate is None or self.predicate(frame):
            if len(self.frames) >= self.capacity:
                self.dropped += 1
            else:
                kind, info = decode_frame(frame)
                self.frames.append(
                    CapturedFrame(self.lan.sim.now, frame.src_mac, frame.dst_mac, kind, info)
                )
        self._original_transmit(frame, src_nic)

    # ------------------------------------------------------------------
    # analysis

    def select(self, kind=None, since=None):
        """Frames matching the filters, in capture order."""
        out = []
        for frame in self.frames:
            if kind is not None and frame.kind != kind:
                continue
            if since is not None and frame.time < since:
                continue
            out.append(frame)
        return out

    def summary(self):
        """{kind: count} over the capture."""
        counts = {}
        for frame in self.frames:
            counts[frame.kind] = counts.get(frame.kind, 0) + 1
        return counts

    def format(self, last=None):
        """tcpdump-ish text dump (optionally only the last N frames)."""
        frames = self.frames if last is None else self.frames[-last:]
        return "\n".join(repr(frame) for frame in frames)

    def __len__(self):
        return len(self.frames)


def decode_frame(frame):
    """(kind, one-line summary) for a frame's payload."""
    if frame.ethertype == ARP_ETHERTYPE:
        packet = frame.payload
        op = "request" if packet.op == ArpOp.REQUEST else "reply"
        if packet.is_gratuitous:
            op = "gratuitous-" + op
        return "arp", "{} who-has/is-at {} ({})".format(op, packet.target_ip, packet.sender_ip)
    if frame.ethertype == IP_ETHERTYPE and isinstance(frame.payload, IpPacket):
        packet = frame.payload
        datagram = packet.payload
        if isinstance(datagram, UdpDatagram):
            payload_type = type(datagram.payload).__name__
            return (
                "udp",
                "{}:{} > {}:{} {}".format(
                    packet.src_ip,
                    datagram.src_port,
                    packet.dst_ip,
                    datagram.dst_port,
                    payload_type,
                ),
            )
        return "ip", "{} > {} ttl={}".format(packet.src_ip, packet.dst_ip, packet.ttl)
    return "other", "ethertype=0x{:04x}".format(frame.ethertype)

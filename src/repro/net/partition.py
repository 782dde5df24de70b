"""Topology partitioning for the sharded simulation kernel.

The scale tier's cluster decomposes naturally along LAN segments: all
heavy traffic (heartbeats, beacons, ARP) stays inside a segment, and
the only inter-segment frames are the leaders' digest unicasts. The
sharded kernel (:mod:`repro.sim.shard`) exploits that structure by
giving every segment its own *cell* — a LAN plus its hosts — and
running groups of cells (*shards*) on separate worker processes.

Three pieces live here:

* :class:`ShardPlan` — the deterministic cell→shard assignment plus
  the lookahead bound (the fixed inter-segment link latency).
* frame envelopes — picklable tuples describing one cross-cell UDP
  datagram in flight, totally ordered by ``(deliver_time, src_cell,
  seq)`` where ``seq`` is a per-source-cell counter. Because a cell's
  event timeline is identical under every shard grouping, so are its
  envelope sequence numbers — the property that makes barrier-time
  injection order (and therefore every same-instant delivery tie)
  grouping-invariant.
* :class:`SegmentUplink` / :class:`UplinkHost` — the per-world router
  for cross-cell traffic. *Every* cross-cell frame becomes an
  envelope, even when source and destination cells live in the same
  world: deliveries are only ever scheduled at epoch barriers, in
  envelope sort order, so the serial (one-world) and sharded runs
  execute byte-identical event sequences.

Envelope layout (plain tuple, cheap to pickle across worker pipes)::

    (deliver_time, src_cell, seq, dst_cell,
     dst_ip, dst_port, src_ip, src_port, payload)

where both addresses are 32-bit integer values.
"""

from repro.net.addresses import IPAddress
from repro.net.host import Host
from repro.net.packet import IpPacket, UdpDatagram

#: Index of the envelope fields used as the total-order merge key.
ENVELOPE_KEY_FIELDS = 3

#: Default fixed latency of the inter-segment (routed) path, seconds.
#: Also the kernel's conservative lookahead bound: a frame sent at
#: time ``s`` cannot be observed before ``s + latency``.
DEFAULT_INTER_LATENCY = 0.025


def envelope_key(envelope):
    """The total-order sort key: ``(deliver_time, src_cell, seq)``."""
    return envelope[:ENVELOPE_KEY_FIELDS]


class ShardPlan:
    """Deterministic assignment of ``n_cells`` cells to ``n_shards`` shards.

    Cells are split into contiguous balanced runs (shard 0 gets the
    lowest-numbered cells). Contiguity keeps a shard's cells adjacent
    in the address plan; balance keeps worker load even.
    """

    def __init__(self, n_cells, n_shards, lookahead=DEFAULT_INTER_LATENCY):
        n_cells = int(n_cells)
        n_shards = int(n_shards)
        if n_cells < 1:
            raise ValueError("n_cells must be >= 1, got {}".format(n_cells))
        if not 1 <= n_shards <= n_cells:
            raise ValueError(
                "n_shards must be in [1, {}], got {}".format(n_cells, n_shards)
            )
        if lookahead <= 0:
            raise ValueError("lookahead must be positive, got {}".format(lookahead))
        self.n_cells = n_cells
        self.n_shards = n_shards
        self.lookahead = float(lookahead)
        base, extra = divmod(n_cells, n_shards)
        self._cells_of = []
        self._shard_of = {}
        start = 0
        for shard in range(n_shards):
            width = base + (1 if shard < extra else 0)
            cells = tuple(range(start, start + width))
            self._cells_of.append(cells)
            for cell in cells:
                self._shard_of[cell] = shard
            start += width

    def cells_of(self, shard):
        """Tuple of cell ids owned by ``shard``."""
        return self._cells_of[shard]

    def shard_of(self, cell):
        """The shard owning ``cell``."""
        return self._shard_of[cell]

    def shards(self):
        """All shard ids."""
        return tuple(range(self.n_shards))

    def __repr__(self):
        return "ShardPlan({} cells over {} shards, lookahead={})".format(
            self.n_cells, self.n_shards, self.lookahead
        )


class SegmentUplink:
    """One world's router for cross-cell frames.

    Sends never schedule delivery directly: they append an envelope to
    :attr:`outbound`, which the kernel drains at the end of each epoch
    and re-injects — sorted by :func:`envelope_key`, on whichever world
    owns the destination cell — at the start of the next one. The
    sort-order injection is what keeps same-instant delivery ties
    identical across shard groupings (see the module docstring).

    ``cell_of_ip`` maps every routable IP address to its cell id;
    addresses it does not know (broadcasts, foreign subnets) fall back
    to the host's normal LAN path.
    """

    def __init__(self, sim, latency, cell_of_ip):
        self.sim = sim
        self.latency = float(latency)
        # Keyed by address value, like the rest of the address plane: a
        # lookup per destination hashes an int, not an IPAddress.
        self._cell_of_value = {IPAddress(ip)._value: cell for ip, cell in cell_of_ip.items()}
        self._hosts_by_ip = {}  # address value -> local Host
        self._seq = {}  # src_cell -> next envelope sequence number
        self.outbound = []
        self.frames_sent = {}  # src_cell -> count
        self.frames_delivered = {}  # dst_cell -> count
        self.frames_dropped = {}  # dst_cell -> count (dead destination)

    def attach_host(self, host, ip):
        """Register a local host as the endpoint for ``ip``."""
        self._hosts_by_ip[IPAddress(ip)._value] = host

    def cell_of(self, ip):
        """Cell id owning ``ip``, or None when the uplink has no route."""
        return self._cell_of_value.get(ip._value)

    def send(self, src_cell, payload, dst_ip, dst_port, src_ip, src_port):
        """Queue one cross-cell datagram; delivery is barrier-scheduled."""
        dst_cell = self._cell_of_value[dst_ip._value]
        seq = self._seq.get(src_cell, 0)
        self._seq[src_cell] = seq + 1
        self.frames_sent[src_cell] = self.frames_sent.get(src_cell, 0) + 1
        self.outbound.append(
            (
                self.sim.now + self.latency,
                src_cell,
                seq,
                dst_cell,
                dst_ip._value,
                int(dst_port),
                src_ip._value,
                int(src_port),
                payload,
            )
        )

    def drain_outbound(self):
        """Remove and return every queued outbound envelope."""
        out = self.outbound
        self.outbound = []
        return out

    def inject(self, envelopes):
        """Schedule delivery events for envelopes routed to this world.

        Callers pass envelopes already sorted by :func:`envelope_key`.
        The envelopes bound for one cell at one instant are one event
        that delivers them in key order. Injected events take
        consecutive scheduler sequence numbers, so anything scheduled
        during a delivery fires after the whole run, exactly as after
        one event per envelope — and the count of events, like the
        order, is the same in every shard grouping.
        """
        runs = {}
        for envelope in envelopes:
            key = (envelope[0], envelope[3])
            run = runs.get(key)
            if run is None:
                runs[key] = [envelope]
            else:
                run.append(envelope)
        at = self.sim.at
        for (time, _cell), run in runs.items():
            at(time, self._deliver, run)

    def _deliver(self, run):
        hosts_by_ip = self._hosts_by_ip
        for envelope in run:
            _time, _src_cell, _seq, dst_cell, dst_value, dst_port, src_value, src_port, payload = (
                envelope
            )
            host = hosts_by_ip.get(dst_value)
            if host is None or not host.alive:
                self.frames_dropped[dst_cell] = self.frames_dropped.get(dst_cell, 0) + 1
                continue
            self.frames_delivered[dst_cell] = self.frames_delivered.get(dst_cell, 0) + 1
            datagram = UdpDatagram(src_port, dst_port, payload)
            # No NIC on this path: the host takes the datagram as accepted.
            packet = IpPacket(IPAddress(src_value), IPAddress(dst_value), datagram)
            Host.receive_ip(packet, (), host)

    def counters(self, cell):
        """JSON-stable per-cell uplink counters (parity artifact field)."""
        return {
            "sent": self.frames_sent.get(cell, 0),
            "delivered": self.frames_delivered.get(cell, 0),
            "dropped": self.frames_dropped.get(cell, 0),
        }


class UplinkHost(Host):
    """A host whose off-cell datagrams ride the segment uplink.

    Destination addresses the uplink maps to a *different* cell are
    enveloped instead of hitting the LAN (where ARP for a non-resident
    address would blackhole them); everything else — intra-cell
    unicasts, broadcasts, unroutable addresses — takes the inherited
    path unchanged.
    """

    def __init__(self, sim, name, uplink, cell, arp_cache_lifetime=60.0):
        super().__init__(sim, name, arp_cache_lifetime=arp_cache_lifetime)
        self.uplink = uplink
        self.cell = cell

    def send_udp(self, payload, dst_ip, dst_port, src_port=0, src_ip=None):
        if not self.alive:
            return
        if type(dst_ip) is not IPAddress:
            dst_ip = IPAddress(dst_ip)
        dst_cell = self.uplink.cell_of(dst_ip)
        if dst_cell is None or dst_cell == self.cell:
            super().send_udp(payload, dst_ip, dst_port, src_port, src_ip)
        else:
            self._envelope(payload, dst_ip, dst_port, src_port, src_ip)

    def _envelope(self, payload, dst_ip, dst_port, src_port, src_ip):
        """Send another cell's copy through the uplink."""
        source = src_ip
        if source is None:
            nics = self.nics
            source = nics[0].primary_ip if nics else None
        if source is None:
            self.packets_dropped += 1
        else:
            self.uplink.send(self.cell, payload, dst_ip, dst_port, IPAddress(source), src_port)

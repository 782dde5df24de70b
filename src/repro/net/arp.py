"""Address Resolution Protocol with cache and spoofing support.

ARP is on the critical path of the paper's headline measurement: after
a VIP moves, traffic keeps flowing to the dead interface's MAC until
the new owner's (spoofed) ARP reply overwrites the stale cache entry on
the router/client. This module models the cache, request/reply
resolution with retries, and unsolicited (gratuitous or spoofed)
updates.

Simplification vs. real ARP: any received ARP packet refreshes the
receiver's cache entry for the sender (create-or-update). Real stacks
are choosier about creating entries from unsolicited packets, but the
behaviour that matters here — stale entries persisting until a spoofed
reply arrives — is identical.
"""

import collections

from repro.net.addresses import BROADCAST_MAC, IPAddress
from repro.net.packet import (
    ARP_ETHERTYPE,
    IP_ETHERTYPE,
    ArpOp,
    ArpPacket,
    EthernetFrame,
)


class ArpEntry(collections.namedtuple("ArpEntry", "mac updated_at")):
    """One cached <IP, MAC> binding with its last refresh time.

    An immutable value: a refresh replaces a cache's entry instead of
    changing it, so all the caches that learn a binding from one frame
    can hold the same object (see :meth:`ArpService.receive`).
    """

    __slots__ = ()


class ArpCache:
    """Per-host ARP cache with entry lifetime.

    Entries age on the owning host's *local* clock (simulated time plus
    the host's skew, see :attr:`Host.local_time`). The cache reads the
    scheduler's clock and the skew directly: every received ARP packet
    and every routed datagram lands here, and going through the
    property chain costs four calls per reading. Entries are keyed by
    the address's 32-bit value, which hashes in C; callers pass and get
    back :class:`IPAddress`. ``updates`` counts every write: a store,
    a drop, an expired entry deleted, a reboot's clear.
    """

    def __init__(self, host, lifetime=60.0):
        self._host = host
        self._scheduler = host.sim.scheduler
        self.lifetime = float(lifetime)
        self._entries = {}
        self.updates = 0

    def lookup(self, ip):
        """Return the cached MAC for ``ip``, or None if absent/expired."""
        if type(ip) is not IPAddress:
            ip = IPAddress(ip)
        entry = self._entries.get(ip._value)
        if entry is None:
            return None
        now = self._scheduler._now + self._host.clock_skew
        if now - entry.updated_at > self.lifetime:
            del self._entries[ip._value]
            self.updates += 1
            return None
        return entry.mac

    def peek(self, ip):
        """The entry stored for ``ip`` as it stands, or None.

        Read-only, unlike :meth:`lookup`: the entry is neither aged nor
        deleted, so a reader can compare what the cache holds from one
        moment to the next without touching it.
        """
        if type(ip) is not IPAddress:
            ip = IPAddress(ip)
        return self._entries.get(ip._value)

    def store(self, ip, mac):
        """Create or refresh the entry for ``ip``."""
        if type(ip) is not IPAddress:
            ip = IPAddress(ip)
        # Without skew the entry holds the scheduler's own float: a
        # sum would allocate one per entry even when adding 0.0.
        now = self._scheduler._now
        skew = self._host.clock_skew
        if skew:
            now += skew
        self._entries[ip._value] = ArpEntry(mac, now)
        self.updates += 1

    def drop(self, ip):
        """Remove the entry for ``ip`` if present."""
        self._entries.pop(IPAddress(ip)._value, None)
        self.updates += 1

    def snapshot(self):
        """Dict copy {ip: mac} of non-expired entries."""
        now = self._host.local_time
        return {
            IPAddress(value): entry.mac
            for value, entry in self._entries.items()
            if now - entry.updated_at <= self.lifetime
        }

    def known_ips(self):
        """IPs with a live entry (the set Wackamole's notify targets)."""
        return set(self.snapshot())

    def __len__(self):
        return len(self.snapshot())


class ArpService:
    """The ARP protocol engine for one host.

    Owns the cache, answers requests for locally bound addresses,
    resolves next-hop MACs (queueing outbound packets while a request
    is in flight), and can emit spoofed replies on behalf of a newly
    acquired virtual address.
    """

    REQUEST_TIMEOUT = 1.0
    MAX_RETRIES = 3

    def __init__(self, host, cache_lifetime=60.0):
        self.host = host
        self.cache = ArpCache(host, lifetime=cache_lifetime)
        self._pending = {}
        self.requests_sent = 0
        self.replies_sent = 0
        self.spoofs_sent = 0
        self.conflicts_seen = 0
        # Called as on_vip_conflict(ip, foreign_mac) when another node's
        # ARP traffic claims an address this host currently has bound —
        # the wire-level symptom of a duplicate VIP after an asymmetric
        # partition heals. Wackamole daemons hook this for resolution.
        self.on_vip_conflict = None

    def reset(self):
        """Reboot: an empty cache and no resolution in flight.

        The queued packets go with the cache. A queue that outlived the
        crash would never be served — its retry chain runs through
        ``host.after`` and died with the host — yet the next
        :meth:`resolve_and_send` for that address would join it instead
        of sending a request, blackholing the peer after recovery.
        """
        self.cache._entries.clear()
        self.cache.updates += 1
        self._pending.clear()

    @staticmethod
    def receive(packet, nics):
        """Process one incoming ARP frame on each of ``nics``, in order.

        The whole ARP receive path, NIC-level checks and counters
        included: the LAN hands a broadcast's full recipient tuple
        here from one event, and a unicast frame is the one-NIC case
        (:meth:`Nic.deliver`). What the packet says is read once; per
        recipient the steps are those of a frame delivered alone.
        Who binds the sender's and the target's address on this
        segment is asked once, of :meth:`Lan.binders`: the lists are
        live, so a recipient is judged by the bindings at its turn,
        and a host with a second NIC is still asked through
        :meth:`Host.owns_ip` (the address may be bound on its other
        segment). Every recipient whose clock has no skew stores the
        same immutable entry — same MAC, same instant — so an
        overheard request costs the segment one entry, not one per
        host.
        """
        sender_ip = packet.sender_ip
        if type(sender_ip) is not IPAddress:
            sender_ip = IPAddress(sender_ip)
        sender_mac = packet.sender_mac
        sender_value = sender_ip._value
        lan = nics[0].lan
        claimants = lan.binders(sender_value)
        repliers = ()
        if packet.op == ArpOp.REQUEST:
            repliers = lan.binders(IPAddress(packet.target_ip)._value)
        shared = None
        for nic in nics:
            host = nic.host
            if not nic.up or not host.alive:
                nic._m_dropped.inc()
                continue
            nic._m_rx.inc()
            service = host.arp
            # Ownership first: it is almost never true, so the MAC
            # comparisons run only for the rare claimed-address packet.
            if (
                (nic in claimants or len(host._nics) > 1 and host.owns_ip(sender_ip))
                and sender_mac != nic.mac
                and all(other.mac != sender_mac for other in host.nics)
            ):
                # Someone else is advertising an address we have bound:
                # duplicate-claim detection (always on; resolution is the
                # hook's business). Do NOT poison our own cache with the
                # foreign binding.
                service.conflicts_seen += 1
                # Note: the claimant MAC is deliberately not traced — MACs
                # are allocated from a process-global counter, so their
                # absolute values are not stable across replays.
                host.trace("arp", "conflict", ip=str(sender_ip))
                if service.on_vip_conflict is not None:
                    service.on_vip_conflict(sender_ip, sender_mac)
            else:
                cache = service.cache
                if host.clock_skew:
                    cache.store(sender_ip, sender_mac)
                else:
                    if shared is None:
                        shared = ArpEntry(sender_mac, cache._scheduler._now)
                    cache._entries[sender_value] = shared
                    cache.updates += 1
                if service._pending:
                    service._flush_pending(sender_ip)
            if nic in repliers:
                service._send_reply(nic, packet)

    def resolve_and_send(self, nic, next_hop_ip, ip_packet):
        """Send ``ip_packet`` out of ``nic`` toward ``next_hop_ip``.

        Transmits immediately on a cache hit; otherwise queues the
        packet and launches a (retried) ARP request. Packets are
        dropped if resolution fails after all retries.
        """
        if type(next_hop_ip) is not IPAddress:
            next_hop_ip = IPAddress(next_hop_ip)
        mac = self.cache.lookup(next_hop_ip)
        if mac is not None:
            self._transmit_ip(nic, mac, ip_packet)
            return
        queue = self._pending.setdefault(next_hop_ip._value, [])
        queue.append((nic, ip_packet))
        if len(queue) == 1:
            self._send_request(nic, next_hop_ip, retries_left=self.MAX_RETRIES)

    def announce(self, nic, ip, target_macs=None):
        """Broadcast (or unicast) a spoofed/gratuitous ARP reply for ``ip``.

        This is the cache-repointing mechanism of §5.1: the reply claims
        ``ip`` is at ``nic.mac``. With ``target_macs`` the notification
        is unicast to specific hosts (§5.2's targeted router updates);
        otherwise it is broadcast to the whole segment.
        """
        packet = ArpPacket(ArpOp.REPLY, IPAddress(ip), nic.mac, IPAddress(ip), nic.mac)
        destinations = target_macs if target_macs else [BROADCAST_MAC]
        for mac in destinations:
            frame = EthernetFrame(nic.mac, mac, ARP_ETHERTYPE, packet)
            nic.transmit(frame)
            self.spoofs_sent += 1
        self.host.trace("arp", "announce", ip=str(ip), targets=len(destinations))

    def _send_request(self, nic, target_ip, retries_left):
        if self.cache.lookup(target_ip) is not None or target_ip._value not in self._pending:
            return
        source_ip = nic.primary_ip or IPAddress(0)
        packet = ArpPacket(ArpOp.REQUEST, source_ip, nic.mac, target_ip)
        frame = EthernetFrame(nic.mac, BROADCAST_MAC, ARP_ETHERTYPE, packet)
        nic.transmit(frame)
        self.requests_sent += 1
        if retries_left > 0:
            self.host.after(
                self.REQUEST_TIMEOUT, self._send_request, nic, target_ip, retries_left - 1
            )
        else:
            self.host.after(self.REQUEST_TIMEOUT, self._give_up, target_ip)

    def _give_up(self, target_ip):
        dropped = self._pending.pop(target_ip._value, [])
        if dropped:
            self.host.trace("arp", "resolution_failed", ip=str(target_ip), dropped=len(dropped))

    def _send_reply(self, nic, request):
        packet = ArpPacket(
            ArpOp.REPLY, request.target_ip, nic.mac, request.sender_ip, request.sender_mac
        )
        frame = EthernetFrame(nic.mac, request.sender_mac, ARP_ETHERTYPE, packet)
        nic.transmit(frame)
        self.replies_sent += 1

    def _flush_pending(self, ip):
        queue = self._pending.pop(ip._value, None)
        if not queue:
            return
        mac = self.cache.lookup(ip)
        for nic, ip_packet in queue:
            self._transmit_ip(nic, mac, ip_packet)

    def _transmit_ip(self, nic, dst_mac, ip_packet):
        frame = EthernetFrame(nic.mac, dst_mac, IP_ETHERTYPE, ip_packet)
        nic.transmit(frame)

"""ARP spoof notification (§5.1, §5.2).

After acquiring a virtual address, the new owner must repoint every
stale ARP cache on the segment. Three strategies, matching the paper:

* **broadcast** (default) — one gratuitous/spoofed reply to the whole
  segment; simple and sufficient for small LANs;
* **configured targets** — unicast replies to the hosts listed in
  ``notify_ips`` (the router in the web-cluster layout, Fig. 3);
* **shared caches** — daemons periodically exchange their ARP cache
  contents over the group, so the owner "approximately knows the set
  of machines that must be notified" (§5.2). Entries older than a TTL
  are garbage-collected (the targeting refinement §5.2 mentions as
  under investigation).
"""


class ArpNotifier:
    """Builds and sends the spoofed ARP replies for one daemon."""

    def __init__(self, host, config):
        self.host = host
        self.config = config
        self._shared = {}
        self.announcements = 0
        self.retries_sent = 0
        self._m_announcements = host.sim.metrics.counter(
            "core.arp_announcements", node=host.name
        )
        # The retry instrument only exists when retries are configured,
        # so historical runs keep their exact metric catalog.
        self._m_retries = None
        if config.profile.arp_announce_retries > 0:
            self._m_retries = host.sim.metrics.counter(
                "core.arp_retries", node=host.name
            )

    def announce(self, nic, address):
        """Spoof ARP for ``address`` now owned by ``nic``.

        With the profile's ``arp_announce_retries`` > 0 the announcement
        is re-sent up to that many extra times with exponential backoff
        (``arp_announce_backoff`` doubling each round), abandoning the
        series as soon as the address is no longer bound here — a
        burst-lossy segment gets repointed by whichever copy survives.
        """
        self._announce_once(nic, address)
        if self.config.profile.arp_announce_retries > 0:
            self.host.after(
                self.config.profile.arp_announce_backoff,
                self._retry_announce,
                nic,
                address,
                1,
            )

    def _announce_once(self, nic, address):
        targets = self._target_macs(nic)
        self.announcements += 1
        self._m_announcements.inc()
        if targets:
            self.host.arp.announce(nic, address, target_macs=targets)
        else:
            self.host.arp.announce(nic, address)

    def _retry_announce(self, nic, address, attempt):
        if not nic.up or not nic.owns_ip(address):
            return
        self.retries_sent += 1
        self._m_retries.inc()
        self._announce_once(nic, address)
        if attempt < self.config.profile.arp_announce_retries:
            self.host.after(
                self.config.profile.arp_announce_backoff * (2 ** attempt),
                self._retry_announce,
                nic,
                address,
                attempt + 1,
            )

    def _target_macs(self, nic):
        """Unicast targets, or empty to request a broadcast."""
        macs = []
        incomplete = False
        for ip in self.config.notify_ips:
            if ip not in nic.lan.subnet:
                continue
            mac = self.host.arp.cache.lookup(ip)
            if mac is None:
                incomplete = True
            else:
                macs.append(mac)
        if self.config.arp_share_interval > 0:
            macs.extend(self._shared_macs(nic))
        if incomplete or (not macs and not self.config.notify_ips):
            return []
        return sorted(set(macs), key=lambda m: m.value) if macs else []

    # ------------------------------------------------------------------
    # shared-cache targeting (§5.2)

    def collect_entries(self):
        """Local cache contents, for the periodic share message."""
        snapshot = self.host.arp.cache.snapshot()
        return tuple((ip, mac) for ip, mac in sorted(snapshot.items()))

    def integrate_share(self, entries, now):
        """Merge a peer's shared cache entries."""
        for ip, mac in entries:
            self._shared[ip] = (mac, now)

    def _shared_macs(self, nic):
        now = self.host.sim.now
        ttl = self.config.arp_share_ttl
        live = []
        expired = []
        for ip, (mac, seen) in sorted(self._shared.items()):
            if now - seen > ttl:
                expired.append(ip)
            elif ip in nic.lan.subnet:
                live.append(mac)
        for ip in expired:
            del self._shared[ip]
        return live

    def shared_size(self):
        """Number of shared entries currently retained."""
        return len(self._shared)

"""VIP resolution and loss attribution for the flow engine.

Where the exact prober sends a real packet and waits, the flow engine
asks a *resolver* what would happen to traffic aimed at a VIP right
now: ``begin_tick()`` once per tick, then ``resolve`` once per distinct
address — unless ``begin_tick()`` returned true, the resolver's promise
that every answer is last tick's, in which case the engine keeps what
it has. Two implementations:

* :class:`ArpViewResolver` — the faithful tier. Resolution follows the
  same data path a real client's kernel follows: the client host's ARP
  cache decides which MAC the requests hit, and the frame only counts
  as served if that interface is up, its host alive, the VIP actually
  bound there, and the client's partition group can reach it. The
  cache is repaired by the same broadcast (spoofed) ARP announcements
  real clients see, so the loss window the engine reports closes at
  exactly the moment the paper's §5.1 repair mechanism fires.
* :class:`DirectResolver` — the scale tier, where clients are not
  modeled and placement is pure computation: a VIP is served iff some
  live manager currently binds it.

A resolution is ``(factor, reason, owner_host)``: ``factor`` is the
fraction of the tick's offered requests that are served (0.0 for a
blackhole, 1.0 for a healthy owner, in between for degraded modes) and
``reason`` labels whatever is lost (see
:data:`repro.flow.pool.LOSS_REASONS`). Resolvers are read-only against
the cluster — the single deliberate exception is the client-side ARP
cache entry stored on a successful cold lookup, which models the
request/reply ARP exchange a real first packet performs — and draw no
RNG: degraded modes scale by the *expected* loss of the installed link
model, so attaching a flow engine never perturbs the draw sequence of
the simulation it observes.
"""

from repro.net.addresses import IPAddress


class ArpViewResolver:
    """Faithful-tier resolution through a client host's ARP view.

    ``client_host`` supplies the viewpoint: its ARP cache (aged by its
    local clock, repointed by broadcast announcements) and its NIC's
    partition group. ``hosts`` is the server population scanned for
    live VIP bindings; the scan happens once per tick, not per pool.
    """

    def __init__(self, lan, client_host, hosts):
        self.lan = lan
        self.client_host = client_host
        self.hosts = hosts
        self._client_nic = client_host.nic_on(lan)
        if self._client_nic is None:
            raise ValueError(
                "client host {} has no NIC on LAN {}".format(client_host.name, lan.name)
            )
        self._scheduler = lan.sim.scheduler
        self._owners = {}
        self._macs = {}
        self._read = None
        self._asked = {}

    def begin_tick(self):
        """True iff every ``resolve`` answers as it did last tick.

        Compared, not versioned, as in :class:`DirectResolver`. A
        resolution reads the state of whichever interface the client's
        cache points at — a spoofed entry may name any NIC on the
        segment — so the read covers every NIC of the LAN, the cache
        entries of the addresses asked on the last resolving tick
        (:meth:`ArpCache.peek` — as stored, never aged) and the loss
        terms. The one input a compare cannot see is time: an entry
        ages out with no write, so "unchanged" also needs the oldest of
        those entries to be inside its lifetime on the client's clock.
        A NIC's bound addresses are read as its 32-bit keys in binding
        order: the same set bound in another order reads as a change,
        which costs one resolving tick and is never wrong.

        The baseline is the read of a resolving tick *before* its
        resolves: what they then write (a cold lookup stores an entry,
        an expired one is deleted) differs from it, which makes the
        next tick a resolving one as well, after which the view is
        quiet.
        """
        lan = self.lan
        client_nic = self._client_nic
        cache = self.client_host.arp.cache
        model = lan.link_model
        nics = lan.nics
        entries = [(ip, cache.peek(ip)) for ip in self._asked]
        read = (
            nics,
            [
                (
                    nic.up,
                    nic.host.alive,
                    nic.host.time_scale,
                    nic.bound_values,
                    lan.connected(client_nic, nic),
                )
                for nic in nics
            ],
            cache,
            entries,
            (model, model.expected_loss() if model is not None else None, lan.loss),
        )
        if read == self._read:
            refreshed = [entry.updated_at for _ip, entry in entries if entry is not None]
            # The comparison ``ArpCache.lookup`` makes, on the clock it
            # reads (the scheduler's, plus the client's skew); if the
            # oldest entry passes it, every entry does.
            now = self._scheduler._now + self.client_host.clock_skew
            if not refreshed or now - min(refreshed) <= cache.lifetime:
                return True
        owners = {}
        for host in self.hosts:
            if not host.alive:
                continue
            for nic in host.nics:
                if nic.lan is lan and nic.up:
                    for value in nic.bound_values:
                        owners.setdefault(value, nic)
        self._owners = owners
        self._macs = {nic.mac: nic for nic in nics}
        self._read = read
        self._asked = {}
        return False

    def resolve(self, vip):
        """(factor, reason, owner_host) for traffic aimed at ``vip`` now."""
        vip = IPAddress(vip)
        # A dict, so a gated engine asking again on every quiet tick
        # leaves it at one key per distinct address.
        self._asked[vip] = None
        owner_nic = self._owners.get(vip._value)
        mac = self.client_host.arp.cache.lookup(vip)
        if mac is None:
            # Cold cache: a real first request would ARP. If a live
            # owner answers, the exchange completes well inside one
            # coarse tick — store the binding and serve.
            if owner_nic is None:
                return 0.0, "no_owner", None
            if not self.lan.connected(self._client_nic, owner_nic):
                return 0.0, "partitioned", None
            self.client_host.arp.cache.store(vip, owner_nic.mac)
            return self._serve(owner_nic)
        # Warm cache: traffic goes wherever the binding points,
        # truthful or not — exactly the stale-ARP blackhole the
        # paper's spoofed announcements exist to repair.
        target = self._macs.get(mac)
        if target is None or not target.up or not target.host.alive:
            if owner_nic is not None and owner_nic is not target:
                return 0.0, "stale_arp", None
            return 0.0, "dead_host", None
        if not target.owns_ip(vip):
            # The interface answers ARP but the address is gone: the
            # kernel drops the datagram on the floor.
            if owner_nic is not None:
                return 0.0, "stale_arp", None
            return 0.0, "no_owner", None
        if not self.lan.connected(self._client_nic, target):
            return 0.0, "partitioned", None
        return self._serve(target)

    def _serve(self, nic):
        factor = degradation_factor(self.lan, nic.host)
        if factor >= 1.0:
            return 1.0, None, nic.host
        return factor, "degraded", nic.host


class DirectResolver:
    """Scale-tier resolution: live binding lookup, no client modeling.

    ``bindings`` is a zero-argument callable returning one ``(owner
    host, bound vips)`` pair per live binder (e.g. the scale cluster's
    managers and their bound sets). Called once per tick; resolution
    is a dict lookup in an owner table that is rebuilt only on a tick
    whose inputs differ from the previous tick's. "Previous" is the
    previous ``begin_tick()`` call, so one instance serves one engine.
    """

    def __init__(self, bindings, lan):
        self.bindings = bindings
        self.lan = lan
        self._owners = {}
        self._read = None

    def begin_tick(self):
        """True iff every ``resolve`` answers as it did last tick.

        Everything a resolution depends on — who binds what, owner
        liveness and slowdown, the LAN's loss terms — is read and
        compared with the previous tick's read. Compared, not
        versioned: those inputs are written at six sites in three
        packages (``ScaleVipManager.apply_view``, ``Host.crash`` /
        ``recover`` / ``set_slowdown``, ``Lan._set_channel`` and the
        plain attribute ``lan.loss``, ``GilbertElliott.bad``), and a
        missed hook would be a silently wrong request ledger.
        """
        binders = [(host, host.alive, host.time_scale, vips) for host, vips in self.bindings()]
        model = self.lan.link_model
        loss_terms = (model, model.expected_loss() if model is not None else None, self.lan.loss)
        if (binders, loss_terms) == self._read:
            return True
        owners = {}
        for host, _alive, _scale, vips in binders:
            for vip in vips:
                owners.setdefault(IPAddress(vip), host)
        self._owners = owners
        # The kept copy freezes each bound set, so the next compare is
        # by value and an in-place mutation cannot hide behind identity.
        self._read = (
            [(host, alive, scale, frozenset(vips)) for host, alive, scale, vips in binders],
            loss_terms,
        )
        return False

    def resolve(self, vip):
        owner = self._owners.get(IPAddress(vip))
        if owner is None or not owner.alive:
            return 0.0, "no_owner", None
        factor = degradation_factor(self.lan, owner)
        if factor >= 1.0:
            return 1.0, None, owner
        return factor, "degraded", owner


def degradation_factor(lan, host):
    """Goodput fraction for a served VIP under active gray modes.

    Deterministic closed forms, never RNG draws (drawing here would
    perturb the simulation's replay sequence):

    * burst loss / base loss — request and reply each cross the
      channel once, so goodput scales by ``(1 - p)²`` with ``p`` the
      (expected, for Gilbert–Elliott) per-frame loss probability;
    * slowdown — an owner running ``factor`` times slow answers an
      open-loop request stream at ``1/factor`` of the offered rate.
    """
    factor = 1.0
    if host is not None and host.time_scale > 1.0:
        factor /= host.time_scale
    if lan is not None:
        model = lan.link_model
        if model is not None:
            p = model.expected_loss()
            if p > 0.0:
                factor *= (1.0 - p) * (1.0 - p)
        if lan.loss:
            factor *= (1.0 - lan.loss) * (1.0 - lan.loss)
    return factor

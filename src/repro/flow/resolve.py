"""VIP resolution and loss attribution for the flow engine.

Where the exact prober sends a real packet and waits, the flow engine
asks a *resolver* what would happen to traffic aimed at a VIP right
now: ``begin_tick()`` once per tick, then ``resolve`` once per distinct
address — unless ``begin_tick()`` returned true, the resolver's promise
that every answer is last tick's, in which case the engine keeps what
it has. Both resolvers read one LAN and keep the same owner table: per
address, the first NIC in attach order that is up, on a live host, and
binds it. They differ in what stands between a client and that owner:

* :class:`ArpViewResolver` — the faithful tier. Resolution follows the
  same data path a real client's kernel follows: the client host's ARP
  cache decides which MAC the requests hit, and the frame only counts
  as served if that interface is up, its host alive, the VIP actually
  bound there, and the client's partition group can reach it. The
  cache is repaired by the same broadcast (spoofed) ARP announcements
  real clients see, so the loss window the engine reports closes at
  exactly the moment the paper's §5.1 repair mechanism fires.
* :class:`DirectResolver` — the scale tier, where clients are not
  modeled and placement is pure computation: a VIP is served iff it
  has an owner.

A tick is quiet while the LAN's change counter (and, for the ARP view,
the client cache's) stands where the last resolving tick read it
(DESIGN.md §8, "The quiet flow tick").

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

import math

from repro.net.addresses import IPAddress


class DirectResolver:
    """Scale-tier resolution: the LAN's owner table, no client modeling.

    Resolution is a dict lookup in the owner table, rebuilt only on a
    tick whose inputs moved since the previous resolving tick. One
    instance serves one engine.
    """

    def __init__(self, lan):
        self.lan = lan
        self._owners = {}
        self._changes = None
        self._model = None
        self._expected = None

    def begin_tick(self):
        """True iff every ``resolve`` answers as it did last tick.

        One integer compare: every write to a resolver input bumps
        ``lan.changes`` — NIC bindings and up state, attach, detach,
        partition groups, blocks, the channel and ``lan.loss``, host
        crash, recovery and slowdown. A degenerate Gilbert–Elliott
        chain's expected loss moves with its ``bad`` flag, which no
        write site sees, so that one term is compared by value (a call
        only while a channel is in force).
        """
        lan = self.lan
        model = self._model
        if lan.changes == self._changes and (
            model is None or model.expected_loss() == self._expected
        ):
            return True
        self._changes = lan.changes
        model = self._model = lan.link_model
        self._expected = model.expected_loss() if model is not None else None
        owners = {}
        for nic in lan.nics:
            if nic.up and nic.host.alive:
                for value in nic.bound_values:
                    owners.setdefault(value, nic)
        self._owners = owners
        return False

    def resolve(self, vip):
        """(factor, reason, owner_host) for traffic aimed at ``vip`` now."""
        owner_nic = self._owners.get(IPAddress(vip)._value)
        if owner_nic is None:
            return 0.0, "no_owner", None
        return self._serve(owner_nic)

    def _serve(self, nic):
        factor = degradation_factor(self.lan, nic.host)
        if factor >= 1.0:
            return 1.0, None, nic.host
        return factor, "degraded", nic.host


class ArpViewResolver(DirectResolver):
    """Faithful-tier resolution through a client host's ARP view.

    ``client_host`` supplies the viewpoint: its ARP cache (aged by its
    local clock, repointed by broadcast announcements) and its NIC's
    partition group.
    """

    def __init__(self, lan, client_host):
        super().__init__(lan)
        self.client_host = client_host
        self._client_nic = client_host.nic_on(lan)
        if self._client_nic is None:
            raise ValueError(
                "client host {} has no NIC on LAN {}".format(client_host.name, lan.name)
            )
        self._scheduler = lan.sim.scheduler
        self._macs = {}
        self._updates = None
        self._oldest = math.inf

    def begin_tick(self):
        """As :meth:`DirectResolver.begin_tick`, and the client's cache.

        The cache counts its own writes (``ArpCache.updates``). The one
        input no write moves is time: an entry ages out on the client's
        clock. ``ArpCache.lookup``'s comparison, on the clock it reads;
        if the oldest entry asked passes it, every entry does.
        """
        cache = self.client_host.arp.cache
        now = self._scheduler._now + self.client_host.clock_skew
        if cache.updates != self._updates or now - self._oldest > cache.lifetime:
            self._changes = None
        if super().begin_tick():
            return True
        self._updates = cache.updates
        self._macs = {nic.mac: nic for nic in self.lan.nics}
        self._oldest = math.inf
        return False

    def resolve(self, vip):
        """(factor, reason, owner_host) for traffic aimed at ``vip`` now."""
        vip = IPAddress(vip)
        owner_nic = self._owners.get(vip._value)
        cache = self.client_host.arp.cache
        mac = cache.lookup(vip)
        if mac is None:
            # Cold cache: a real first request would ARP. If a live
            # owner answers, the exchange completes well inside one
            # coarse tick — store the binding and serve.
            if owner_nic is None:
                return 0.0, "no_owner", None
            if not self.lan.connected(self._client_nic, owner_nic):
                return 0.0, "partitioned", None
            cache.store(vip, owner_nic.mac)
            return self._serve(owner_nic)
        # An entry cannot change without a write the cache counts, so
        # the oldest one asked since the last resolving tick is known.
        self._oldest = min(self._oldest, cache.peek(vip).updated_at)
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

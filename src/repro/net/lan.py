"""A LAN segment: one broadcast domain with partition and gray faults.

Frames are delivered after a configurable latency (plus optional
jitter) to every attached, up interface in the same *partition group*
as the sender. A partition *cut* models the switch failures the paper
mentions (§3.1 footnote); two NICs share a group iff they are on the
same side of every cut in force, and a heal takes back one cut. Unicast
frames reach the interface(s) owning the destination MAC; broadcast
frames reach everyone in the group.

Recipient sets are precomputed and cached — broadcast fan-out lists
per source NIC and a MAC index for unicast — and invalidated whenever
topology or partition groups change. The cached lists preserve attach
order, the order in which each recipient's fate (lost, blocked, delayed,
duplicated) is decided and its draws are made. A frame takes one
scheduler event per delivery instant, whatever knob is in force: with
none, all its recipients share one.

Beyond fail-stop partitions the segment supports *gray* link faults
(see ``docs/FAULTS.md``): directed blocks (A→B dropped while B→A
flows), a Gilbert–Elliott burst-loss channel, and frame duplication /
reordering knobs. All gray draws come from a dedicated RNG stream
(``lan/<name>/gray``) consulted only while a gray knob is active, so
runs that never enable one replay the exact historical draw sequence.
``changes`` counts every write to what a flow resolver reads off the
segment, here and in the NIC and host modules (DESIGN.md §8).
"""

import math
from collections import Counter

from repro.net.addresses import Subnet
from repro.net.arp import ArpService
from repro.net.host import Host
from repro.net.packet import ARP_ETHERTYPE, IP_ETHERTYPE

_NO_NICS = ()


def _knob(name, value, most=math.inf):
    """``value`` as a float, finite and in [0, most]; else ValueError naming the knob."""
    value = float(value)
    if not 0.0 <= value <= most or math.isinf(value):
        raise ValueError("{} must be finite and in [0, {}], got {}".format(name, most, value))
    return value


class Lan:
    """One simulated broadcast domain."""

    def __init__(self, sim, name, subnet, latency=0.0002, jitter=0.0, loss=0.0):
        self.sim = sim
        self.name = name
        self.subnet = Subnet(subnet)
        self.latency = _knob("latency", latency)
        self.jitter = _knob("jitter", jitter)
        self.changes = 0
        self.loss = loss
        self._nics = []
        self._groups = {}
        self._cuts = []  # the cuts in force: nic -> side, oldest first
        self._bcast_cache = {}  # src nic -> tuple of same-group recipients
        self._mac_index = None  # mac -> tuple of owning nics, attach order
        self._binders = {}  # address value -> list of this LAN's nics binding it
        self._rng = sim.rng.stream("lan/{}".format(name))
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost = 0
        self.frames_blocked = 0
        self.frames_burst_lost = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0
        # Gray-fault state: directed (src_nic, dst_nic) blocks, an
        # optional burst-loss channel, and duplication/reordering
        # probabilities. ``_gray_active`` gates one attribute test on
        # the per-frame fast path; the dedicated RNG stream and the
        # gray metric instruments are created on first use so inactive
        # runs stay byte-identical (draws AND metric catalogs).
        self._blocked = Counter()  # (src_nic, dst_nic) -> blocks in force
        self._models = []  # burst-loss channels in force, newest last
        self.duplicate_prob = 0.0
        self.reorder_prob = 0.0
        self.reorder_window = 0.002
        self._gray_active = False
        self._gray_rng = None
        self._m_gray = None
        metrics = sim.metrics
        self._m_sent = metrics.counter("net.frames_sent", node=name)
        self._m_broadcast = metrics.counter("net.broadcasts", node=name)
        self._m_delivered = metrics.counter("net.frames_delivered", node=name)
        self._m_lost = metrics.counter("net.frames_lost", node=name)

    def attach(self, nic):
        """Register an interface on this segment (called by Nic)."""
        self._nics.append(nic)
        self._groups[nic] = 0
        if self._cuts:
            self._regroup()
        self._invalidate()

    def detach(self, nic):
        """Remove an interface from the segment."""
        if nic in self._groups:
            self._nics.remove(nic)
            del self._groups[nic]
            self._invalidate()

    @property
    def loss(self):
        """Independent per-delivery loss probability of the base channel."""
        return self._loss

    @loss.setter
    def loss(self, value):
        self._loss = _knob("loss", value, 1.0)
        self.changes += 1

    def binders(self, value):
        """This segment's interfaces that bind the address of 32-bit ``value``.

        Kept by :class:`Nic` wherever its bound addresses change. One
        list per address for the segment's life, changed in place: a
        reader holding it across a batch of recipients reads the
        bindings as they stand at each one's turn.
        """
        return self._binders.setdefault(value, [])

    @property
    def nics(self):
        """All attached interfaces (tuple snapshot)."""
        return tuple(self._nics)

    def partition(self, groups):
        """Add a cut: ``groups`` is an iterable of NIC collections.

        Every listed NIC goes to the side matching its position, others
        to side 0; a host stands for its NICs here. Returns the cut.
        """
        self.sim.coverage_changing()
        cut = {}
        for index, members in enumerate(groups, start=1):
            for member in members:
                for nic in self._nics_of(member):
                    cut[nic] = index
        self._cuts.append(cut)
        self._regroup()
        self.sim.trace.emit(
            "lan", self.name, "partition", groups=sorted(self._groups.values())
        )
        return cut

    def heal(self, cut):
        """Take back one cut; the cuts still in force keep their groups."""
        self.sim.coverage_changing()
        self._cuts.remove(cut)
        self._regroup()
        self.sim.trace.emit("lan", self.name, "heal")

    def _regroup(self):
        # A NIC's group is its side of every cut in force: one cut keeps
        # its side numbers, several are numbered densely.
        sides = {nic: tuple(cut.get(nic, 0) for cut in self._cuts) for nic in self._nics}
        distinct = sorted(set(sides.values()))
        for nic, side in sides.items():
            self._groups[nic] = side[0] if len(side) == 1 else distinct.index(side)
        self._invalidate()

    def _nics_of(self, member):
        if hasattr(member, "nics"):
            return [nic for nic in member.nics if nic.lan is self]
        return [member]

    def _invalidate(self):
        # Any attach/detach/partition/heal drops the cached recipient
        # lists; they are rebuilt lazily on the next frame.
        self.changes += 1
        self._bcast_cache.clear()
        self._mac_index = None

    def _broadcast_recipients(self, src_nic):
        group = self._groups[src_nic]
        groups = self._groups
        recipients = tuple(
            nic for nic in self._nics if nic is not src_nic and groups[nic] == group
        )
        self._bcast_cache[src_nic] = recipients
        return recipients

    def _build_mac_index(self):
        index = {}
        for nic in self._nics:
            index.setdefault(nic.mac, []).append(nic)
        index = {mac: tuple(nics) for mac, nics in index.items()}
        self._mac_index = index
        return index

    # ------------------------------------------------------------------
    # gray link faults (see docs/FAULTS.md)

    def _refresh_gray(self):
        # Every gray write lands here; blocks and the channel are resolver inputs.
        self.changes += 1
        self._gray_active = bool(
            self._blocked
            or self._models
            or self.duplicate_prob
            or self.reorder_prob
        )
        if self._gray_active and self._gray_rng is None:
            self._gray_rng = self.sim.rng.stream("lan/{}/gray".format(self.name))
        if self._gray_active and self._m_gray is None:
            metrics = self.sim.metrics
            self._m_gray = {
                "blocked": metrics.counter("net.frames_blocked", node=self.name),
                "burst_lost": metrics.counter("net.frames_burst_lost", node=self.name),
                "duplicated": metrics.counter("net.frames_duplicated", node=self.name),
                "reordered": metrics.counter("net.frames_reordered", node=self.name),
            }

    def block_direction(self, src, dst):
        """Drop every frame flowing ``src`` → ``dst`` (one way only).

        ``src``/``dst`` accept NICs or hosts (all of a host's NICs on
        this LAN). The reverse direction keeps flowing — the classic
        one-way gray link. Blocks compose with partition groups and with
        each other. Returns the blocked pairs.
        """
        self.sim.coverage_changing()
        pairs = [
            (src_nic, dst_nic)
            for src_nic in self._nics_of(src)
            for dst_nic in self._nics_of(dst)
            if src_nic is not dst_nic
        ]
        self._blocked.update(pairs)
        self._refresh_gray()
        self.sim.trace.emit(
            "lan", self.name, "block_direction", pairs=len(self._blocked)
        )
        return pairs

    def unblock(self, pairs):
        """Take back blocks that :meth:`block_direction` returned."""
        self.sim.coverage_changing()
        self._blocked -= Counter(pairs)
        self._refresh_gray()

    @property
    def link_model(self):
        """The burst-loss channel in force: the newest installed model, or None."""
        return self._models[-1] if self._models else None

    def add_link_model(self, model):
        """Install a burst-loss channel model (the newest is the channel)."""
        self._models.append(model)
        self._set_channel()

    def remove_link_model(self, model):
        """Remove one installed burst-loss channel model."""
        self._models.remove(model)
        self._set_channel()

    def _set_channel(self):
        model = self.link_model
        self._refresh_gray()
        params = model.describe() if model is not None else None
        self.sim.trace.emit("lan", self.name, "link_model", params=params)

    def set_duplication(self, probability):
        """Per-delivery probability that a frame arrives twice."""
        self.duplicate_prob = _knob("duplication probability", probability, 1.0)
        self._refresh_gray()

    def set_reordering(self, probability, window=None):
        """Per-delivery probability of an extra uniform(0, window) delay.

        A delayed frame is overtaken by later frames — UDP reordering.
        """
        self.reorder_prob = _knob("reordering probability", probability, 1.0)
        if window is not None:
            self.reorder_window = _knob("reordering window", window)
        self._refresh_gray()

    def connected(self, nic_a, nic_b):
        """True when two interfaces can currently exchange frames.

        Requires the *pair* to be healthy: same partition group and
        neither direction blocked. A one-way link therefore counts as
        disconnected for auditing purposes — coverage must converge per
        strongly-connected component, not per optimistic half-link.
        """
        if self._groups[nic_a] != self._groups[nic_b]:
            return False
        if self._blocked and (
            (nic_a, nic_b) in self._blocked or (nic_b, nic_a) in self._blocked
        ):
            return False
        return True

    def reaches(self, src_nic, dst_nic):
        """True when frames currently flow ``src`` → ``dst`` (one way).

        The optimistic half of :meth:`connected`: under nested
        asymmetric blocks a host may still *receive* from a peer it can
        no longer answer. The auditor uses this to recognise a stale
        singleton that is being repaired by traffic it can hear.
        """
        if self._groups[src_nic] != self._groups[dst_nic]:
            return False
        if self._blocked and (src_nic, dst_nic) in self._blocked:
            return False
        return True

    def transmit(self, frame, src_nic):
        """Deliver ``frame`` from ``src_nic`` per MAC addressing rules."""
        self.frames_sent += 1
        self._m_sent.inc()
        dst_mac = frame.dst_mac
        if dst_mac.is_broadcast:
            self._m_broadcast.inc()
            recipients = self._bcast_cache.get(src_nic)
            if recipients is None:
                recipients = self._broadcast_recipients(src_nic)
        else:
            index = self._mac_index
            if index is None:
                index = self._build_mac_index()
            owners = index.get(dst_mac, _NO_NICS)
            if not owners:
                return
            groups = self._groups
            src_group = groups[src_nic]
            if len(owners) == 1 and not (self._gray_active or self._loss or self.jitter):
                # The per-datagram case — one owner, no knob to consult:
                # straight to the delivery event, no recipient list.
                nic = owners[0]
                if nic is not src_nic and groups[nic] == src_group:
                    self.frames_delivered += 1
                    self._m_delivered.inc()
                    self.sim.scheduler.after(self.latency, nic.deliver, frame)
                return
            recipients = [
                nic
                for nic in owners
                if nic is not src_nic and groups[nic] == src_group
            ]
        if not recipients:
            return
        scheduler = self.sim.scheduler
        latency = self.latency
        loss = self._loss
        jitter = self.jitter
        if not (self._gray_active or loss or jitter):
            # Every recipient is due one latency from now and no draw is
            # made: one event delivers to all of them, in attach order.
            # At N recipients a broadcast is one scheduler event, not N:
            # the O(N²) cost of a segment-wide ARP storm becomes O(N).
            self.frames_delivered += len(recipients)
            self._m_delivered.inc(len(recipients))
            scheduler.after(latency, self._deliver_batch, frame, recipients)
            return
        # Each recipient's fate in attach order: base loss and jitter
        # from the LAN's stream, every gray decision from the gray stream
        # (so enabling a gray knob never perturbs the base sequence). The
        # link model has no stream of its own: it draws from the gray
        # stream by design (see linkfault.py).
        rng = self._rng
        gray_rng = self._gray_rng
        blocked = self._blocked
        model = self.link_model
        duplicate_prob = self.duplicate_prob
        reorder_prob = self.reorder_prob
        counters = self._m_gray
        now = scheduler.now
        due = {}  # delivery instant -> its recipients, in decision order
        lost = 0
        for nic in recipients:
            if blocked and (src_nic, nic) in blocked:
                self.frames_blocked += 1
                counters["blocked"].inc()
                continue
            if loss and rng.random() < loss:
                lost += 1
                continue
            delay = latency
            if jitter:
                delay += rng.uniform(0.0, jitter)
            if model is not None and model.drops(gray_rng):
                self.frames_burst_lost += 1
                counters["burst_lost"].inc()
                lost += 1
                continue
            if reorder_prob and gray_rng.random() < reorder_prob:
                delay += gray_rng.uniform(0.0, self.reorder_window)
                self.frames_reordered += 1
                counters["reordered"].inc()
            due.setdefault(now + delay, []).append(nic)
            if duplicate_prob and gray_rng.random() < duplicate_prob:
                self.frames_duplicated += 1
                counters["duplicated"].inc()
                due.setdefault(now + (delay + gray_rng.uniform(0.0, latency)), []).append(nic)
        # One event per delivery instant, scheduled in the order of each
        # instant's first delivery: nothing else is scheduled in between,
        # so the deliveries run in the order one event per delivery would.
        delivered = 0
        for time, nics in due.items():
            delivered += len(nics)
            scheduler.at(time, self._deliver_batch, frame, nics)
        if lost:
            self.frames_lost += lost
            self._m_lost.inc(lost)
        if delivered:
            self.frames_delivered += delivered
            self._m_delivered.inc(delivered)

    @staticmethod
    def _deliver_batch(frame, recipients):
        """Deliver one frame to the recipients due at one instant, in order."""
        # A broadcast reaches every host on the segment (heartbeats,
        # the O(N²) ARP boot and cache-expiry storms): received once
        # for the whole recipient list, not once per recipient.
        ethertype = frame.ethertype
        if ethertype == IP_ETHERTYPE:
            Host.receive_ip(frame.payload, recipients)
        elif ethertype == ARP_ETHERTYPE:
            ArpService.receive(frame.payload, recipients)
        else:
            for nic in recipients:
                nic.deliver(frame)

    def __repr__(self):
        return "Lan({}, {}, {} nics)".format(self.name, self.subnet, len(self._nics))

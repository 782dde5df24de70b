"""Segmented daemon membership: the scale tier's cells.

The flat Totem-style protocol in :mod:`repro.gcs.daemon` broadcasts
every heartbeat to every daemon — O(N²) frames per interval — and was
built for the paper's handful of hosts. This module implements the
hierarchical scheme of the "Scalable Group Management" line of work,
inside one cell:

* the fleet is statically partitioned into *segments* of
  ``segment_size`` consecutive hosts. A segment is one LAN and so one
  paper cluster: IP takeover is an ARP spoof, and ARP reaches one
  broadcast domain. Nothing crosses segments;
* each segment elects a deterministic *leader* (the lowest-index
  member believed alive); members unicast heartbeats to their leader
  only, and the leader aggregates them into the segment's liveness set
  with a monotonically increasing *epoch*. A node's view is its
  segment's ``(epoch, alive)``;
* the leader broadcasts a periodic ``LeaderBeacon`` on the segment's
  LAN: its view, and the leader-liveness lease. A member adopts a
  beacon's view when its epoch is newer, and every member holds the
  same alive set, so all compute the same successor when the leader
  goes silent;
* each heartbeat carries the member's adopted epoch, so a leader that
  starts behind its segment — a revived original leader at epoch 0,
  or one whose epoch was corrupted — fast-forwards past the highest
  epoch it hears. Every member repeats it every interval, so the
  hand-off survives any one lost frame.

Steady-state load per interval is therefore N − S heartbeat unicasts
and S beacon broadcasts (S = segment count) — at 1024 hosts in 32
segments, ~1 000 frames instead of the flat protocol's ~1 000 000.

The roster is a static :class:`Fleet`: the scale tier models a fixed
machine population whose *liveness* changes (the data-centre case),
not an elastic membership. A recovering node rejoins by heartbeating
its leader, whose next sweep bumps the epoch. A fleet-wide view is an
observation, not protocol state: :func:`merge_digests` folds the
segments' ``(epoch, alive)`` records into one :class:`GlobalView`.

Views are observational, not virtually synchronous: the scale tier
pairs them with rendezvous-hash placement
(:mod:`repro.core.placement`), which needs no agreed message stream —
any node holding the same view computes the same VIP allocation.
"""

from repro.net.addresses import IPAddress
from repro.sim.process import Process

#: Default UDP port for the segment membership plane.
SEGMENT_PORT = 4810


class SegmentConfig:  # repro: not-wire (local configuration, never dispatched)
    """Timing knobs for the segmented membership plane."""

    def __init__(
        self,
        segment_size=32,
        heartbeat_interval=0.5,
        member_timeout=1.6,
        beacon_interval=0.5,
        leader_timeout=1.6,
        port=SEGMENT_PORT,
    ):
        if int(segment_size) < 1:
            raise ValueError("segment_size must be >= 1, got {}".format(segment_size))
        if member_timeout <= heartbeat_interval:
            raise ValueError("member_timeout must exceed heartbeat_interval")
        if leader_timeout <= beacon_interval:
            raise ValueError("leader_timeout must exceed beacon_interval")
        self.segment_size = int(segment_size)
        self.heartbeat_interval = float(heartbeat_interval)
        self.member_timeout = float(member_timeout)
        self.beacon_interval = float(beacon_interval)
        self.leader_timeout = float(leader_timeout)
        self.port = int(port)


class Fleet:  # repro: not-wire (static roster shared by reference, never sent)
    """The static roster: node names, addresses, segment assignment."""

    def __init__(self, entries, segment_size):
        """``entries`` is the index-ordered list of (name, ip) pairs.

        Addresses are converted to :class:`IPAddress` once, here, so
        the per-message send path never re-parses a dotted string.
        """
        entries = [(name, IPAddress(ip)) for name, ip in entries]
        self.names = tuple(name for name, _ip in entries)
        self.ips = tuple(ip for _name, ip in entries)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate node names in fleet")
        self.segment_size = int(segment_size)
        self.index_of = {name: index for index, name in enumerate(self.names)}
        self.ip_of = {name: ip for name, ip in entries}
        self.n_segments = (len(self.names) + segment_size - 1) // segment_size
        # Built once and shared by every node, never copied: the rosters
        # and each segment's optimistic boot view.
        self._segments = tuple(range(self.n_segments))
        size = self.segment_size
        self._members = tuple(self.names[s * size : (s + 1) * size] for s in self._segments)
        self.boot_views = tuple(GlobalView(0, members) for members in self._members)

    def __len__(self):
        return len(self.names)

    def segment_of(self, name):
        """Segment id of a node name."""
        return self.index_of[name] // self.segment_size

    def segment_of_index(self, index):
        return index // self.segment_size

    def segment_members(self, segment):
        """Index-ordered tuple of node names in ``segment`` (one object per segment)."""
        return self._members[segment]

    def initial_leader(self, segment):
        """The boot-time leader: the segment's lowest-index node."""
        return self.names[segment * self.segment_size]

    def segments(self):
        """All segment ids (one tuple)."""
        return self._segments


class GlobalView:  # repro: not-wire (a node's view, or an observer's merge; never sent)
    """One liveness view: a segment's, or the fleet's merge of them.

    ``version`` is the segment's epoch — for a merged fleet view the sum
    of every segment's, which any segment change strictly increases —
    so a holder adopts by simple version comparison. ``members`` is the
    tuple of live node names: a segment's in fleet order, a merge's sorted.
    """

    __slots__ = ("version", "members")
    view_id = property(lambda self: self.version)  # as the Property-1 judge names it

    def __init__(self, version, members):
        self.version = version
        self.members = tuple(members)

    def __eq__(self, other):
        return (
            isinstance(other, GlobalView)
            and self.version == other.version
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.version, self.members))

    def __repr__(self):
        return "GlobalView(v{}, {} members)".format(self.version, len(self.members))


def merge_digests(digests):
    """Merge ``{segment: (epoch, alive_tuple)}`` into a fleet :class:`GlobalView`.

    Pure and order-independent: the view is a function of the record
    *set*, so any two observers holding equal records compute identical
    views. The merged member list contains exactly the union of the
    alive tuples — no phantom members — and the version is the epoch
    sum, which any record update strictly increases (epochs are
    monotonic).
    """
    version = 0
    members = []
    for segment in sorted(digests):
        epoch, alive = digests[segment]
        version += epoch
        members.extend(alive)
    return GlobalView(version, tuple(sorted(members)))


# ----------------------------------------------------------------------
# wire messages (plain final classes; exact-type dispatch)


class SegHeartbeat:
    """Member → segment leader: "I am alive, and hold this epoch"."""

    __slots__ = ("sender", "segment", "epoch")

    def __init__(self, sender, segment, epoch):
        self.sender = sender
        self.segment = segment
        self.epoch = epoch


class LeaderBeacon:
    """Leader → segment members: liveness lease + the segment's view."""

    __slots__ = ("segment", "leader", "epoch", "alive")

    def __init__(self, segment, leader, epoch, alive):
        self.segment = segment
        self.leader = leader
        self.epoch = epoch
        self.alive = alive


# ----------------------------------------------------------------------


class SegmentNode(Process):
    """One host's segmented-membership daemon (member and/or leader).

    Boot is optimistic: every node starts believing its whole segment
    is alive (epoch 0), so a cleanly booting cluster installs full
    coverage without N view changes. Deaths are detected by the
    leader's sweep and propagate as epoch bumps.
    """

    def __init__(self, host, lan, index, fleet, config=None, on_view=None):
        self.fleet = fleet
        self.index = index
        self.node_name = fleet.names[index]
        super().__init__(host.sim, "seg@{}".format(self.node_name))
        self.host = host
        self.lan = lan
        self.config = config or SegmentConfig()
        self.segment = fleet.segment_of_index(index)
        self.peers = fleet.segment_members(self.segment)
        self.on_view = on_view
        host.register_service(self)
        host.segment_node = self
        self._socket = host.open_udp(self.config.port, self._on_datagram)
        self.messages_sent = 0
        metrics = self.sim.metrics
        self._m_sent = metrics.counter("gcs.seg_messages_sent", node=self.node_name)
        self._m_views = metrics.counter("gcs.seg_views_adopted", node=self.node_name)

        # The adopted view, as state and as the object handed out.
        self.view = fleet.boot_views[self.segment]
        self._seg_epoch = 0
        self._seg_alive = self.peers
        self.views_adopted = 0

        # Member-side state.
        self._leader = fleet.initial_leader(self.segment)
        self._last_beacon = 0.0
        self._suspect_leaders = set()

        # Leader-side state (used only while leading).
        self.is_leader = False
        self._last_heard = {}

        self._heartbeat_timer = self.periodic(
            self._send_heartbeat, self.config.heartbeat_interval, name="seg_heartbeat"
        )
        self._leader_watch_timer = self.periodic(
            self._check_leader, self.config.beacon_interval, name="seg_leader_watch"
        )
        self._sweep_timer = self.periodic(
            self._leader_sweep, self.config.heartbeat_interval, name="seg_sweep"
        )
        self._beacon_timer = self.periodic(
            self._send_beacon, self.config.beacon_interval, name="seg_beacon"
        )
        self.started = False

    # ------------------------------------------------------------------
    # lifecycle

    def start(self):
        """Boot the node; the fleet's initial leaders assume duty at once."""
        if self.started:
            raise RuntimeError("segment node {} already started".format(self.node_name))
        self.started = True
        self._last_beacon = self.now
        jitter = self.rng("seg").uniform(0.0, self.config.heartbeat_interval)
        self._heartbeat_timer.start(first_delay=jitter)
        self._leader_watch_timer.start(first_delay=self.config.leader_timeout + jitter)
        if self.node_name == self.fleet.initial_leader(self.segment):
            self._assume_leadership(initial=True)
        if self.on_view is not None:
            self.on_view(self.view)
        self.trace("segments", "start", segment=self.segment)

    def stop(self):
        if not self.alive:
            return
        super().stop()
        self._socket.close()

    # ------------------------------------------------------------------
    # transport

    def _send(self, message, address):
        """One datagram carrying ``message`` to ``address``: a peer, or the LAN's broadcast."""
        if self.alive:
            self.messages_sent += 1
            self._m_sent.inc()
            port = self.config.port
            self.host.send_udp(message, address, port, src_port=port)

    def _send_heartbeat(self):
        if self.is_leader:
            return
        self._send(
            SegHeartbeat(self.node_name, self.segment, self._seg_epoch),
            self.fleet.ip_of[self._leader],
        )

    # ------------------------------------------------------------------
    # inbound dispatch

    def _on_datagram(self, message, src, dst):
        if not self.alive or not self.started:
            return
        kind = type(message)
        if kind is SegHeartbeat:
            self._on_heartbeat(message)
        elif kind is LeaderBeacon:
            self._on_beacon(message)

    def _on_heartbeat(self, message):
        if message.segment != self.segment or not self.is_leader:
            return
        self._last_heard[message.sender] = self.now
        if message.epoch > self._seg_epoch:
            # Epoch hand-off: the segment already adopted a later epoch
            # (we are a revived predecessor, or ours was rewound).
            # Fast-forward past it, or members would ignore our beacons.
            self._adopt(message.epoch + 1, self._seg_alive)

    def _on_beacon(self, message):
        if message.segment != self.segment:
            return
        if self.is_leader:
            if self.fleet.index_of[message.leader] < self.index:
                # A lower-index member (recovered original leader, or a
                # rebooted predecessor) is leading again: abdicate.
                self._abdicate(message.leader)
            else:
                return
        self._leader = message.leader
        self._last_beacon = self.now
        self._suspect_leaders.discard(message.leader)
        epoch, alive = message.epoch, message.alive
        if epoch > self._seg_epoch or (epoch == self._seg_epoch and alive != self._seg_alive):
            # A newer view, or the same epoch told differently (two
            # leaders minted it): the leader we follow is authoritative.
            self._adopt(epoch, alive)

    # ------------------------------------------------------------------
    # member duties: leader liveness

    def _check_leader(self):
        if self.is_leader:
            return
        if self.now - self._last_beacon <= self.config.leader_timeout:
            # ``_last_beacon`` only grows, so the ticks at which the lease
            # reads fresh now would return here too: skip them.
            self._leader_watch_timer.skip_while(
                lambda time: time - self._last_beacon <= self.config.leader_timeout
            )
            return
        # The leader's lease expired. Every member of the segment holds
        # the same view (same alive set, same suspects after the same
        # silent leases), so all compute the same successor.
        self._suspect_leaders.add(self._leader)
        candidates = [
            name
            for name in self._seg_alive
            if name not in self._suspect_leaders
        ]
        if not candidates:
            candidates = [self.node_name]
        successor = min(candidates, key=lambda name: self.fleet.index_of[name])
        self.trace(
            "segments", "leader_timeout", leader=self._leader, successor=successor
        )
        if successor == self.node_name:
            self._assume_leadership()
        else:
            self._leader = successor
            self._last_beacon = self.now  # grace for the successor's first beacon

    # ------------------------------------------------------------------
    # leader duties

    def _assume_leadership(self, initial=False):
        self.is_leader = True
        self._leader = self.node_name
        alive = [
            name
            for name in self._seg_alive
            if name == self.node_name or name not in self._suspect_leaders
        ]
        if self.node_name not in alive:
            alive.append(self.node_name)
        alive = tuple(sorted(alive, key=lambda name: self.fleet.index_of[name]))
        now = self.now
        self._last_heard = {name: now for name in alive}
        interval = self.config.beacon_interval
        self._sweep_timer.start(first_delay=self.config.heartbeat_interval)
        self._beacon_timer.start(first_delay=0.0 if initial else interval)
        self.trace("segments", "lead", segment=self.segment, epoch=self._seg_epoch)
        if not initial:
            self._adopt(self._seg_epoch + 1, alive)  # beacons it at once

    def _abdicate(self, to_leader):
        self.is_leader = False
        self._leader = to_leader
        self._sweep_timer.stop()
        self._beacon_timer.stop()
        self.trace("segments", "abdicate", to=to_leader)
        # Hand our epoch over now rather than at our next heartbeat, so
        # the successor fast-forwards within one LAN latency.
        self._send_heartbeat()

    def _leader_sweep(self):
        """Recompute the segment's alive set from heartbeat freshness."""
        if not self.is_leader:
            return
        now = self.now
        horizon = self.config.member_timeout
        alive = tuple(
            name
            for name in self.peers
            if name == self.node_name
            or now - self._last_heard.get(name, -horizon) < horizon
        )
        if alive != self._seg_alive:
            self._adopt(self._seg_epoch + 1, alive)

    def _send_beacon(self):
        if not self.is_leader:
            return
        beacon = LeaderBeacon(self.segment, self.node_name, self._seg_epoch, self._seg_alive)
        # One frame for the whole segment: a cell's LAN holds exactly it
        # (a node of another segment on a shared LAN ignores it).
        self._send(beacon, self.lan.subnet.broadcast_address)

    def _adopt(self, epoch, alive):
        self._seg_epoch = epoch
        self._seg_alive = alive
        view = self.view = GlobalView(epoch, alive)
        self.views_adopted += 1
        self._m_views.inc()
        self.trace("segments", "view", version=epoch, members=len(alive))
        if self.on_view is not None:
            self.on_view(view)
        if self.is_leader:
            # Push the new view to members ahead of the periodic beacon
            # so remaps start within one LAN latency, not one interval.
            self._send_beacon()

    def __repr__(self):
        return "SegmentNode({}, seg={}, {})".format(
            self.node_name, self.segment, "leader" if self.is_leader else "member"
        )

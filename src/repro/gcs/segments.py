"""Segmented daemon membership: the 256–1024-host scale tier.

The flat Totem-style protocol in :mod:`repro.gcs.daemon` broadcasts
every heartbeat to every daemon — O(N²) frames per interval — and was
built for the paper's handful of hosts. This module implements the
hierarchical scheme of the "Scalable Group Management" line of work:

* the fleet is statically partitioned into *segments* of
  ``segment_size`` consecutive hosts;
* each segment elects a deterministic *leader* (the lowest-index
  member believed alive); members unicast heartbeats to their leader
  only, and the leader aggregates them into a per-segment liveness
  set with a monotonically increasing *epoch*;
* leaders gossip their full digest map — one ``SegmentDigest`` per
  believed peer leader per interval, S·(S-1) unicasts total (S =
  segment count) — and merge the record set into a
  :class:`GlobalView` with :func:`merge_digests`, a pure,
  order-independent function, so any two leaders holding the same
  digests install the identical view. Records carry the believed
  leader of every segment, so leadership changes propagate
  transitively: a freshly promoted leader only needs one live peer
  to become reachable by all of them;
* leaders push the merged view to their members inside the periodic
  ``LeaderBeacon``, which doubles as the leader-liveness signal and
  carries the segment's alive set so every member can compute the
  same deterministic successor when the leader goes silent. A segment
  is its own LAN, so the beacon is one broadcast on it.

Steady-state load per interval is therefore about N − S heartbeat
unicasts, S beacon broadcasts and S·(S−1) digests — at 1024 hosts in
32 segments, ~2 000 frames instead of the flat protocol's ~1 000 000.

The roster is a static :class:`Fleet`: the scale tier models a fixed
machine population whose *liveness* changes (the data-centre case),
not an elastic membership. Whole-segment failure is detected by digest
silence (the segment's members drop out of the merged view); a
recovering node rejoins by heartbeating its leader, whose next sweep
bumps the epoch and re-propagates.

Views are observational, not virtually synchronous: the scale tier
pairs them with rendezvous-hash placement
(:mod:`repro.core.placement`), which needs no agreed message stream —
any node holding the same view computes the same VIP allocation.
"""

from repro.net.addresses import IPAddress
from repro.sim.process import Process
from repro.stabilization import StabilizationConfig

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
        digest_interval=0.5,
        digest_timeout=2.5,
        port=SEGMENT_PORT,
        stabilization=None,
    ):
        if int(segment_size) < 1:
            raise ValueError("segment_size must be >= 1, got {}".format(segment_size))
        if member_timeout <= heartbeat_interval:
            raise ValueError("member_timeout must exceed heartbeat_interval")
        if leader_timeout <= beacon_interval:
            raise ValueError("leader_timeout must exceed beacon_interval")
        if digest_timeout <= digest_interval:
            raise ValueError("digest_timeout must exceed digest_interval")
        self.segment_size = int(segment_size)
        self.heartbeat_interval = float(heartbeat_interval)
        self.member_timeout = float(member_timeout)
        self.beacon_interval = float(beacon_interval)
        self.leader_timeout = float(leader_timeout)
        self.digest_interval = float(digest_interval)
        self.digest_timeout = float(digest_timeout)
        self.port = int(port)
        # Self-stabilization: a leader periodically audits its own
        # digest entry against its live epoch/alive state and the
        # adopted view version, re-minting epochs past any regression.
        # interval 0 (default) disables the audit — historical behaviour.
        if stabilization is not None and not isinstance(stabilization, StabilizationConfig):
            raise TypeError("stabilization must be a StabilizationConfig or None")
        self.stabilization = stabilization or StabilizationConfig()


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
        # Built once and shared by every node, never copied: the rosters,
        # the boot digest map and the optimistic boot view it merges to.
        self._segments = tuple(range(self.n_segments))
        size = self.segment_size
        self._members = tuple(self.names[s * size : (s + 1) * size] for s in self._segments)
        self.boot_digests = {s: (0, members) for s, members in enumerate(self._members)}
        self.boot_view = merge_digests(self.boot_digests)

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


class GlobalView:  # repro: not-wire (carried inside LeaderBeacon fields, not dispatched)
    """One merged fleet-wide liveness view.

    ``version`` is the sum of all segment epochs — strictly increasing
    under any segment change, so observers can adopt by simple
    version comparison. ``members`` is the sorted tuple of live node
    names.
    """

    __slots__ = ("version", "members")

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
    """Merge ``{segment: (epoch, alive_tuple)}`` into a :class:`GlobalView`.

    Pure and order-independent: the view is a function of the digest
    *set*, so any two nodes holding equal digests install identical
    views (the agreement property the test suite asserts). The merged
    member list contains exactly the union of the alive tuples — no
    phantom members — and the version is the epoch sum, which any
    digest update strictly increases (epochs are monotonic).
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
    """Member → segment leader: "I am alive"."""

    __slots__ = ("sender", "segment")

    def __init__(self, sender, segment):
        self.sender = sender
        self.segment = segment


class LeaderBeacon:
    """Leader → segment members: liveness lease + current global view."""

    __slots__ = ("segment", "leader", "epoch", "alive", "view_version", "view_members")

    def __init__(self, segment, leader, epoch, alive, view_version, view_members):
        self.segment = segment
        self.leader = leader
        self.epoch = epoch
        self.alive = alive
        self.view_version = view_version
        self.view_members = view_members


class SegmentDigest:
    """Leader → peer leader: full gossip of the sender's digest map.

    ``records`` is a tuple of ``(segment, leader, epoch, alive)`` —
    one per segment, carrying the sender's believed leader so routing
    survives leadership changes the receiver has not observed.
    """

    __slots__ = ("sender", "records")

    def __init__(self, sender, records):
        self.sender = sender
        self.records = records


# ----------------------------------------------------------------------


class SegmentNode(Process):
    """One host's segmented-membership daemon (member and/or leader).

    Boot is optimistic: every node starts believing the whole static
    fleet is alive (view version 0), so a cleanly booting cluster
    installs full coverage without N view changes. Deaths are detected
    by the responsible leader's sweep and propagate as epoch bumps.
    """

    def __init__(self, host, lan, index, fleet, config=None, on_global_view=None):
        self.fleet = fleet
        self.index = index
        self.node_name = fleet.names[index]
        super().__init__(host.sim, "seg@{}".format(self.node_name))
        self.host = host
        self.lan = lan
        self.config = config or SegmentConfig()
        self.segment = fleet.segment_of_index(index)
        self.peers = fleet.segment_members(self.segment)
        self.on_global_view = on_global_view
        host.register_service(self)
        host.segment_node = self
        self._socket = host.open_udp(self.config.port, self._on_datagram)
        self.messages_sent = 0
        metrics = self.sim.metrics
        self._m_sent = metrics.counter("gcs.seg_messages_sent", node=self.node_name)
        self._m_views = metrics.counter("gcs.seg_views_adopted", node=self.node_name)

        # Member-side state.
        self._leader = fleet.initial_leader(self.segment)
        self._seg_alive = tuple(self.peers)
        self._seg_epoch = 0
        self._last_beacon = 0.0
        self._suspect_leaders = set()

        # Leader-side state (used only while leading).
        self.is_leader = False
        self._last_heard = {}
        self._digests = dict(fleet.boot_digests)
        self._digest_heard = {}
        self._peer_leaders = {
            segment: fleet.initial_leader(segment) for segment in fleet.segments()
        }
        # sender -> (records, _seg_epoch, _seg_alive, copy of _digests) of
        # its last digest whose merge changed nothing (see _on_digest).
        self._idle_digests = {}

        self.global_view = fleet.boot_view
        self.views_adopted = 0

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
            self._send_beacons, self.config.beacon_interval, name="seg_beacon"
        )
        self._digest_timer = self.periodic(
            self._send_digests, self.config.digest_interval, name="seg_digest"
        )
        self._stabilize_timer = None
        if self.config.stabilization.enabled:
            self._stabilize_timer = self.periodic(
                self._stabilize_audit,
                self.config.stabilization.interval,
                name="seg_stabilize",
            )
        self.stabilize_repairs = 0
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
        if self._stabilize_timer is not None:
            self._stabilize_timer.start(first_delay=self.config.stabilization.interval + jitter)
        if self.on_global_view is not None:
            self.on_global_view(self.global_view)
        self.trace("segments", "start", segment=self.segment)

    def stop(self):
        if not self.alive:
            return
        super().stop()
        self._socket.close()

    # ------------------------------------------------------------------
    # transport

    def _unicast(self, peer_name, message):
        self._send(message, self.fleet.ip_of[peer_name])

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
        self._unicast(self._leader, SegHeartbeat(self.node_name, self.segment))

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
        elif kind is SegmentDigest:
            self._on_digest(message)

    def _on_heartbeat(self, message):
        if message.segment != self.segment:
            return
        if self.is_leader:
            self._last_heard[message.sender] = self.now

    def _on_beacon(self, message):
        if message.segment != self.segment:
            return
        sender_index = self.fleet.index_of[message.leader]
        if self.is_leader:
            if sender_index < self.index:
                # A lower-index member (recovered original leader, or a
                # rebooted predecessor) is leading again: abdicate.
                self._abdicate(message.leader)
            else:
                return
        self._leader = message.leader
        self._last_beacon = self.now
        self._seg_alive = message.alive
        self._seg_epoch = message.epoch
        self._suspect_leaders.discard(message.leader)
        if message.view_version > self.global_view.version:
            self._adopt_view(GlobalView(message.view_version, message.view_members))

    def _on_digest(self, message):
        if not self.is_leader:
            return
        sender = message.sender
        sender_segment = self.fleet.segment_of(sender)
        if sender_segment != self.segment:
            # The sender speaks for its own segment: learn it as that
            # segment's leader and refresh the silence detector.
            self._peer_leaders[sender_segment] = sender
            self._digest_heard[sender_segment] = self.now
        records = message.records
        if self._idle_digests.get(sender) == (
            records,
            self._seg_epoch,
            self._seg_alive,
            self._digests,
        ):
            # The merge below is a function of the records and of these
            # three pieces of *our* state, and with exactly these inputs
            # it last changed nothing. The state is compared, not
            # versioned: an epoch rewound behind our back (corruption)
            # must see the peers' unchanged gossip echo the higher one.
            return
        changed = False
        minted = False
        for segment, leader, epoch, alive in records:
            if segment == self.segment:
                if epoch > self._seg_epoch:
                    # Epoch handoff: an abdicating predecessor (or a
                    # peer that outlived our crash) holds later epochs
                    # of our own segment. Fast-forward past them —
                    # otherwise the fleet would reject our records as
                    # stale.
                    self._seg_epoch = epoch + 1
                    merged = set(alive)
                    merged.add(self.node_name)
                    self._seg_alive = tuple(
                        sorted(merged, key=lambda name: self.fleet.index_of[name])
                    )
                    now = self.now
                    for name in self._seg_alive:
                        self._last_heard.setdefault(name, now)
                    minted = True
                elif epoch == self._seg_epoch and set(alive) != set(self._seg_alive):
                    # Same epoch, different story (a peer's silence
                    # bump raced our own bump). We are authoritative:
                    # mint a fresh epoch so our record dominates.
                    self._seg_epoch += 1
                    minted = True
                continue
            stored_epoch, _stored_alive = self._digests[segment]
            if epoch > stored_epoch:
                self._digests[segment] = (epoch, alive)
                self._peer_leaders[segment] = leader
                changed = True
        if not (changed or minted):
            self._idle_digests[sender] = (
                records,
                self._seg_epoch,
                self._seg_alive,
                dict(self._digests),
            )
            return
        if minted:
            self._digests[self.segment] = (self._seg_epoch, self._seg_alive)
        self._refresh_view()
        if minted:
            self._send_digests()
            self._send_beacons()

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
        # the same last beacon (same alive set, same suspects after the
        # same silent leases), so all compute the same successor.
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
        epoch = self._seg_epoch if initial else self._seg_epoch + 1
        self._seg_alive = tuple(sorted(alive, key=lambda name: self.fleet.index_of[name]))
        self._seg_epoch = epoch
        now = self.now
        self._last_heard = {name: now for name in self._seg_alive}
        self._digest_heard = {
            segment: now for segment in self.fleet.segments() if segment != self.segment
        }
        self._digests[self.segment] = (epoch, self._seg_alive)
        self._peer_leaders[self.segment] = self.node_name
        self._sweep_timer.start(first_delay=self.config.heartbeat_interval)
        self._beacon_timer.start(first_delay=0.0)
        self._digest_timer.start(first_delay=0.0)
        self.trace("segments", "lead", segment=self.segment, epoch=epoch)
        self._refresh_view()

    def _abdicate(self, to_leader):
        self.is_leader = False
        self._leader = to_leader
        self._sweep_timer.stop()
        self._beacon_timer.stop()
        self._digest_timer.stop()
        self.trace("segments", "abdicate", to=to_leader)
        # Hand our digest map to the successor so it can fast-forward
        # past the epochs we minted and keep our peer-leader routing.
        self._unicast(to_leader, self._gossip_message())
        self._peer_leaders[self.segment] = to_leader

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
        changed = alive != self._seg_alive
        if changed:
            self._seg_epoch += 1
            self._seg_alive = alive
            self._digests[self.segment] = (self._seg_epoch, alive)
            self.trace(
                "segments", "epoch", epoch=self._seg_epoch, alive=len(alive)
            )
        # Whole-segment silence: a peer segment whose digests stopped
        # (leader dead with no survivor to take over) drops out of the
        # merged view via a locally owned epoch bump.
        for segment in self.fleet.segments():
            if segment == self.segment:
                continue
            heard = self._digest_heard.get(segment, now)
            epoch, seg_alive = self._digests[segment]
            if seg_alive and now - heard > self.config.digest_timeout:
                self._digests[segment] = (epoch + 1, ())
                self._digest_heard[segment] = now
                changed = True
                self.trace("segments", "segment_silent", segment=segment)
        if changed:
            self._refresh_view()
            self._send_digests()
            self._send_beacons()

    def _send_beacons(self):
        if not self.is_leader:
            return
        view = self.global_view
        beacon = LeaderBeacon(
            self.segment,
            self.node_name,
            self._seg_epoch,
            self._seg_alive,
            view.version,
            view.members,
        )
        # One frame for the whole segment: a cell's LAN holds exactly it
        # (a node of another segment on a shared LAN ignores it).
        self._send(beacon, self.lan.subnet.broadcast_address)

    def _gossip_message(self):
        records = tuple(
            (segment, self._peer_leaders[segment]) + self._digests[segment]
            for segment in self.fleet.segments()
        )
        return SegmentDigest(self.node_name, records)

    def _send_digests(self):
        if not self.is_leader:
            return
        digest = self._gossip_message()
        targets = sorted(
            {
                self._peer_leaders[segment]
                for segment in self.fleet.segments()
                if segment != self.segment
            }
            - {self.node_name}
        )
        for name in targets:
            self._unicast(name, digest)

    # ------------------------------------------------------------------
    # self-stabilization (docs/FAULTS.md, "State corruption")

    def _stabilize_audit(self):
        """Leader-side local invariant audit against epoch corruption.

        Two invariants a leader can check with purely local state:

        * its own digest entry must equal its live ``(epoch, alive)``
          pair — corruption of either side desynchronises what the
          leader believes from what it gossips;
        * the merge of its digest map must not fall below the view
          version it has already adopted (epochs only grow, so a lower
          sum means the digest map was regressed).

        Both repair by re-minting the segment epoch *past* the
        regression — the same monotonic-mint rule `_on_digest` uses for
        epoch handoff — and re-gossiping, so the fleet converges on the
        repaired record. Member-side epoch regression needs no audit:
        the next beacon overwrites it.
        """
        if not self.alive or not self.started or not self.is_leader:
            return
        repaired = None
        epoch, alive = self._digests[self.segment]
        if (epoch, alive) != (self._seg_epoch, self._seg_alive):
            self._seg_epoch = max(epoch, self._seg_epoch) + 1
            self._digests[self.segment] = (self._seg_epoch, self._seg_alive)
            repaired = "digest_desync"
        merged = merge_digests(self._digests)
        if merged.version < self.global_view.version:
            deficit = self.global_view.version - merged.version
            self._seg_epoch += deficit + 1
            self._digests[self.segment] = (self._seg_epoch, self._seg_alive)
            repaired = "epoch_regression"
        if repaired is not None:
            self.stabilize_repairs += 1
            self.trace(
                "stabilize", "repair", invariant=repaired, epoch=self._seg_epoch
            )
            self._refresh_view()
            self._send_digests()
            self._send_beacons()

    def _refresh_view(self):
        view = merge_digests(self._digests)
        if view.version > self.global_view.version:
            self._adopt_view(view)

    def _adopt_view(self, view):
        self.global_view = view
        self.views_adopted += 1
        self._m_views.inc()
        self.trace(
            "segments", "view", version=view.version, members=len(view.members)
        )
        if self.on_global_view is not None:
            self.on_global_view(view)
        if self.is_leader:
            # Push the new view to members ahead of the periodic beacon
            # so remaps start within one LAN latency, not one interval.
            self._send_beacons()

    def __repr__(self):
        return "SegmentNode({}, seg={}, {})".format(
            self.node_name, self.segment, "leader" if self.is_leader else "member"
        )

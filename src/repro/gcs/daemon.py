"""The Spread-like daemon: glue between network, membership, ordering,
groups, and client sessions.

One daemon runs per host (client-daemon architecture, §4.1). It owns a
UDP socket on the Spread port, broadcasts heartbeats, runs the
membership engine and the per-view orderer, maintains the process-group
map, and serves local client sessions with a small IPC latency.
"""

from repro.gcs.client import SpreadClient, SpreadConnectionError
from repro.gcs.config import SpreadConfig
from repro.gcs.failure import FailureDetector
from repro.gcs.membership import MembershipEngine
from repro.gcs.messages import (
    AckMsg,
    FormMsg,
    GroupView,
    Heartbeat,
    InstallMsg,
    JoinMsg,
    LeaveNotice,
    NackMsg,
    OrderedMsg,
    RecoveryDigest,
    SpreadMessage,
    SubmitMsg,
)
from repro.gcs.ordering import ViewOrderer
from repro.gcs.views import DaemonView
from repro.sim.process import Process
from repro.sim.timers import Timer


class SpreadDaemon(Process):
    """One group-communication daemon on one host."""

    def __init__(self, host, lan, config=None, daemon_id=None, realtime=False):
        self.daemon_id = daemon_id or host.name
        super().__init__(host.sim, "spread@{}".format(self.daemon_id))
        self.host = host
        self.lan = lan
        self.realtime = realtime
        self.config = config or SpreadConfig.default()
        host.register_service(self)
        # Clients connect to "the daemon on this host" (localhost in the
        # real system), so the host tracks its current daemon.
        host.spread_daemon = self
        # §6: on loaded machines the daemon should run with real-time
        # priority so scheduling delay cannot fake a network failure.
        self._socket = host.open_udp(
            self.config.port, self._on_datagram, realtime=realtime
        )
        self._addr_book = {}
        self._clients = {}
        self._local_joins = {}
        self._msg_counter = 0
        self._future_ordered = []
        self.groups = {}
        self._group_intra = {}
        self.orderer = None
        self.resubmit_timer = Timer(self.sim.scheduler, lambda: self.orderer.resubmit(), "resubmit")
        self.nack_timer = Timer(self.sim.scheduler, lambda: self.orderer.send_nack(), "nack")
        self.fd = FailureDetector(self, self._on_suspect)
        self.membership = MembershipEngine(self)
        self._heartbeat_timer = self.periodic(
            self._send_heartbeat, self.config.heartbeat_timeout, name="heartbeat"
        )
        self._stabilize_timer = None
        if self.config.profile.audit_interval > 0:
            self._stabilize_timer = self.periodic(
                self._stabilize_audit,
                self.config.profile.audit_interval,
                name="stabilize",
            )
        self.stabilize_repairs = 0
        self.started = False
        # Gray fault: a wedged daemon is alive (port bound, process
        # scheduled) but neither receives nor sends protocol traffic —
        # the deadlocked-event-loop failure a fail-stop crash cannot
        # model. Peers see silence; local clients see nothing at all.
        self.wedged = False
        self.messages_sent = 0
        metrics = self.sim.metrics
        self._m_sent = metrics.counter("gcs.messages_sent", node=self.daemon_id)
        self._m_received = metrics.counter("gcs.datagrams_received", node=self.daemon_id)
        self._m_delivered = metrics.counter("gcs.messages_delivered", node=self.daemon_id)
        self._m_heartbeats = metrics.counter("gcs.heartbeats_sent", node=self.daemon_id)

    # ------------------------------------------------------------------
    # lifecycle

    def start(self):
        """Boot the daemon: begin heartbeats and look for peers."""
        if self.started:
            raise RuntimeError("daemon {} already started".format(self.daemon_id))
        self.started = True
        first_beat = self.rng("heartbeat").uniform(0.0, self.config.heartbeat_timeout)
        self._heartbeat_timer.start(first_delay=first_beat)
        if self._stabilize_timer is not None:
            self._stabilize_timer.start(
                first_delay=self.config.profile.audit_interval + first_beat
            )
        self.membership.start()
        self.trace("daemon", "start")

    def shutdown(self):
        """Voluntary exit: announce the leave so peers reconfigure at once."""
        if not self.alive:
            return
        self.broadcast(LeaveNotice(self.daemon_id))
        self.trace("daemon", "shutdown")
        self.crash(cause="shutdown")

    def crash(self, cause="crash"):
        """Stop abruptly; local client sessions see a broken connection."""
        if not self.alive:
            return
        self.trace("daemon", "stopped", cause=cause)
        self.stop()

    def stop(self):
        """Full teardown; also invoked by the host when it crashes."""
        if not self.alive:
            return
        if self.orderer is not None:
            self.orderer.freeze()
        self.membership.shutdown()
        self.fd.stop()
        super().stop()
        self._socket.close()
        for client_name in sorted(self._clients):
            client = self._clients[client_name]
            self.sim.after(self.config.client_ipc_latency, client._handle_disconnect)
        self._clients.clear()
        self._local_joins.clear()

    @property
    def current_view(self):
        """The installed daemon membership view."""
        return self.membership.view

    @property
    def operational(self):
        """True when a view is installed and ordering is live."""
        from repro.gcs.membership import OPERATIONAL

        return self.membership.state == OPERATIONAL

    # ------------------------------------------------------------------
    # transport

    def broadcast(self, message):
        """Send a daemon message to the whole segment."""
        if not self.alive or self.wedged:
            return
        self.messages_sent += 1
        self._m_sent.inc()
        self.host.send_udp(
            message,
            self.lan.subnet.broadcast_address,
            self.config.port,
            src_port=self.config.port,
        )

    def unicast(self, daemon_id, message):
        """Send to one daemon; falls back to broadcast if address unknown."""
        if not self.alive or self.wedged:
            return
        address = self._addr_book.get(daemon_id)
        if address is None:
            self.broadcast(message)
            return
        self.messages_sent += 1
        self._m_sent.inc()
        self.host.send_udp(message, address, self.config.port, src_port=self.config.port)

    def _send_heartbeat(self):
        view_id, top_seq = None, 0
        if self.orderer is not None and not self.orderer.frozen:
            view_id = self.orderer.view_id
            top_seq = self.orderer.top_seq()
        self._m_heartbeats.inc()
        self.broadcast(Heartbeat(self.daemon_id, view_id, top_seq))

    def next_msg_id(self):
        """Globally unique message id for originated submissions."""
        self._msg_counter += 1
        return (self.daemon_id, self._msg_counter)

    # ------------------------------------------------------------------
    # inbound dispatch

    def _on_datagram(self, message, src, dst):
        # Wire messages are plain final classes, so dispatch on exact
        # type — this is the single busiest protocol function and the
        # isinstance chain it replaces showed up at the top of campaign
        # profiles.
        if not self.alive or not self.started or self.wedged:
            return
        self._m_received.inc()
        kind = type(message)
        if kind is Heartbeat:
            # First and flat: N x (N - 1) of these are heard per
            # heartbeat interval, against a handful of everything else.
            sender = message.sender
            if sender is not None and sender != self.daemon_id:
                self._addr_book[sender] = src[0]
                self.fd.heard_from(sender)
            self.membership.on_foreign_traffic(sender)
            if message.view_id is not None:
                self.orderer.on_heartbeat(
                    message.view_id, message.top_seq
                )
            return
        if kind is not OrderedMsg:
            # OrderedMsg carries the *originator*, not the broadcaster
            # (the sequencer); it must not feed the address book.
            sender = self._sender_of(message)
            if sender is not None and sender != self.daemon_id:
                self._addr_book[sender] = src[0]
                self.fd.heard_from(sender)
        if kind is JoinMsg:
            self.membership.on_join(message)
        elif kind is FormMsg:
            self.membership.on_form(message)
        elif kind is AckMsg:
            self.membership.on_ack(message)
        elif kind is InstallMsg:
            self.membership.on_install(message)
        elif kind is LeaveNotice:
            self.membership.on_leave_notice(message)
        elif kind is SubmitMsg:
            self.orderer.on_submit(message)
        elif kind is NackMsg:
            self.orderer.on_nack(message)
        elif kind is OrderedMsg:
            self._on_ordered(message)

    @staticmethod
    def _sender_of(message):
        sender = getattr(message, "sender", None)
        if sender is not None:
            return sender
        sender = getattr(message, "rep", None)
        if sender is not None:
            return sender
        return getattr(message, "origin", None)

    def _on_ordered(self, message):
        if message.view_id == self.orderer.view_id:
            self.orderer.on_ordered(message)
        elif self.membership.view.view_id < message.view_id:
            self._future_ordered.append(message)

    def _on_suspect(self, peer):
        if self.alive:
            self.trace("daemon", "suspect", peer=peer)
            self.membership.on_suspect(peer)

    # ------------------------------------------------------------------
    # self-stabilization (docs/FAULTS.md, "State corruption")

    def _stabilize_audit(self):
        """Periodic local invariant audit over ordering and membership.

        Collects the layer audits (:meth:`ViewOrderer.stabilize_audit`,
        :meth:`MembershipEngine.stabilize_audit`), traces every locally
        applied repair, and escalates findings that only a view change
        can fix into a membership GATHER, whose recovery digests
        rebuild the delivery state.
        """
        if not self.alive or not self.started or self.wedged:
            return
        repairs = []
        escalations = []
        if self.orderer is not None:
            fixed, escalate = self.orderer.stabilize_audit()
            repairs.extend(fixed)
            if escalate is not None:
                escalations.append("ordering: {}".format(escalate))
        fixed, escalate = self.membership.stabilize_audit()
        repairs.extend(fixed)
        if escalate is not None:
            escalations.append("membership: {}".format(escalate))
        for invariant, was, now in repairs:
            self.stabilize_repairs += 1
            self.trace("stabilize", "repair", invariant=invariant, was=was, now=now)
        if escalations:
            self.stabilize_repairs += 1
            self.trace("stabilize", "repair", invariant="gather", reason=escalations[0])
            self.membership.trigger_gather("stabilize: {}".format(escalations[0]))

    # ------------------------------------------------------------------
    # membership engine hooks

    def install_initial_view(self, view):
        """Create the boot-time singleton view's orderer."""
        self.orderer = ViewOrderer(self, view)

    def on_leave_operational(self):
        """Freeze ordering while a view change is negotiated."""
        self.orderer.freeze()
        self.fd.stop()

    def make_digest(self):
        """Snapshot for the membership ACK (Virtual Synchrony input)."""
        local_groups = {}
        for client_name in sorted(self._local_joins):
            for group in sorted(self._local_joins[client_name]):
                local_groups.setdefault(group, []).append(client_name)
        return RecoveryDigest(
            self.orderer.view_id,
            self.orderer.log,
            self.orderer.delivered_aru,
            local_groups,
        )

    def apply_install(self, install, old_view):
        """Recover old-view messages, install the new view, notify clients."""
        old_orderer = self.orderer
        old_orderer.freeze()
        union = install.recovery.get(old_orderer.view_id, {})
        for seq in sorted(union):
            message = union[seq]
            if message.origin == self.daemon_id:
                old_orderer.mark_recovered(message.msg_id)
            if old_orderer.absorb_recovered(seq):
                self.apply_ordered(message)
        pending = old_orderer.pending_submissions()

        self.groups = {group: set(members) for group, members in install.groups.items()}
        self._group_intra = {}
        new_view = DaemonView(install.view_id, install.members)
        self.orderer = ViewOrderer(self, new_view)

        buffered = [m for m in self._future_ordered if m.view_id == install.view_id]
        self._future_ordered = [
            m for m in self._future_ordered if install.view_id < m.view_id
        ]

        for client_name in sorted(self._local_joins):
            client = self._clients.get(client_name)
            for group in sorted(self._local_joins[client_name]):
                view = GroupView(
                    group,
                    self._group_view_id(group),
                    tuple(sorted(self.groups.get(group, ()))),
                    "network",
                )
                self._deliver_to_client(client, "_deliver_group_view", view)

        for submission in pending:
            self.orderer.submit(
                submission.kind,
                submission.group,
                submission.payload,
                msg_id=submission.msg_id,
            )
        for message in buffered:
            self.orderer.on_ordered(message)
        self.fd.watch(new_view.members)

    # ------------------------------------------------------------------
    # agreed delivery application

    def apply_ordered(self, message):
        """Apply one totally ordered message (data or group event)."""
        self._m_delivered.inc()
        if message.kind == OrderedMsg.DATA:
            sender_name, payload = message.payload
            spread_message = SpreadMessage(message.group, sender_name, payload, message.view_id)
            for client in self._local_members(message.group):
                self._deliver_to_client(client, "_deliver_message", spread_message)
        elif message.kind == OrderedMsg.JOIN_GROUP:
            self._apply_join(message.group, message.payload)
        elif message.kind == OrderedMsg.LEAVE_GROUP:
            member_name, cause = message.payload
            self._apply_leave(message.group, member_name, cause)

    def _apply_join(self, group, member_name):
        members = self.groups.setdefault(group, set())
        if member_name in members:
            return
        members.add(member_name)
        self._notify_group(group, "join")

    def _apply_leave(self, group, member_name, cause):
        members = self.groups.get(group)
        if members is None or member_name not in members:
            return
        members.discard(member_name)
        if not members:
            del self.groups[group]
        self._notify_group(group, cause)

    def _notify_group(self, group, cause):
        self._group_intra[group] = self._group_intra.get(group, 0) + 1
        view = GroupView(
            group,
            self._group_view_id(group),
            tuple(sorted(self.groups.get(group, ()))),
            cause,
        )
        for client in self._local_members(group):
            self._deliver_to_client(client, "_deliver_group_view", view)

    def _group_view_id(self, group):
        view_id = self.membership.view.view_id
        return (view_id.counter, view_id.rep, self._group_intra.get(group, 0))

    def _local_members(self, group):
        members = []
        for client_name in sorted(self._local_joins):
            if group in self._local_joins[client_name]:
                client = self._clients.get(client_name)
                if client is not None:
                    members.append(client)
        return members

    def _deliver_to_client(self, client, method, item):
        if client is None or not client.connected:
            return
        self.sim.after(self.config.client_ipc_latency, getattr(client, method), item)

    # ------------------------------------------------------------------
    # client session API

    def connect(self, client_name):
        """Open a client session; raises if the daemon is down."""
        if not self.alive or not self.started:
            raise SpreadConnectionError(
                "daemon {} is not accepting connections".format(self.daemon_id)
            )
        client = SpreadClient(self, client_name)
        if client.private_name in self._clients:
            raise SpreadConnectionError(
                "client name {} already connected".format(client.private_name)
            )
        self._clients[client.private_name] = client
        self._local_joins[client.private_name] = set()
        return client

    def client_join(self, client, group):
        self._local_joins[client.private_name].add(group)
        self.orderer.submit(OrderedMsg.JOIN_GROUP, group, client.private_name)

    def client_leave(self, client, group, cause):
        self._local_joins[client.private_name].discard(group)
        self.orderer.submit(OrderedMsg.LEAVE_GROUP, group, (client.private_name, cause))

    def client_multicast(self, client, group, payload):
        self.orderer.submit(
            OrderedMsg.DATA, group, (client.private_name, payload)
        )

    def client_disconnected(self, client, cause):
        groups = self._local_joins.pop(client.private_name, set())
        for group in sorted(groups):
            self.orderer.submit(
                OrderedMsg.LEAVE_GROUP, group, (client.private_name, cause)
            )
        self._clients.pop(client.private_name, None)
        client.connected = False

    def __repr__(self):
        return "SpreadDaemon({}, view={})".format(self.daemon_id, self.membership.view)

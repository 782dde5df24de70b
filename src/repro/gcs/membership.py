"""The daemon membership protocol.

State machine (one instance per daemon):

* **OPERATIONAL** — a view is installed; agreed delivery runs; the
  failure detector watches every other member.
* **GATHER** — triggered by a suspicion, a foreign daemon's traffic, a
  peer's JOIN, or a voluntary leave. The daemon collects the daemons it
  hears, calling with JOIN until each has echoed its set (Totem's rule).
  The *discovery timeout* (Table 1) bounds this phase; it restarts
  whenever a new daemon is discovered, so the phase lasts one quiet
  discovery interval.
* **FORM_SENT** — the deterministic representative (lowest daemon id
  among those gathered) proposes the membership and collects ACKs,
  each carrying a recovery digest.
* **ACK_SENT** — a non-representative accepted a proposal and awaits
  the INSTALL.

On INSTALL, every member first delivers — in sequence order — the
union of old-view messages known by the members arriving from its own
old view (Virtual Synchrony), then installs the identically ordered
member list and returns to OPERATIONAL. Any timeout or surprise along
the way falls back to GATHER, which makes the protocol robust to the
cascading faults the paper's algorithm is designed around.
"""

from repro.gcs.messages import AckMsg, FormMsg, InstallMsg, JoinMsg
from repro.gcs.views import DaemonView, ViewId

OPERATIONAL = "operational"
GATHER = "gather"
FORM_SENT = "form_sent"
ACK_SENT = "ack_sent"


class MembershipEngine:
    """Runs the membership state machine for one daemon."""

    def __init__(self, daemon):
        self.daemon = daemon
        self.config = daemon.config
        self.state = OPERATIONAL
        self.view = DaemonView(ViewId(0, daemon.daemon_id), [daemon.daemon_id])
        self.highest_counter = 0
        self.alive = set()
        self._heard = {}  # this gather: sender -> the set its last JOIN named
        self._proposal = None
        self._acks = {}
        self._acked_view_id = None
        self.views_installed = 0
        self.gathers_started = 0
        metrics = daemon.sim.metrics
        self._m_views = metrics.counter("gcs.views_installed", node=daemon.daemon_id)
        self._m_gathers = metrics.counter("gcs.gathers_started", node=daemon.daemon_id)

        self._join_timer = daemon.periodic(
            self._broadcast_join, self.config.join_interval, name="join"
        )
        self._discovery_timer = daemon.timer(self._on_discovery_timeout, name="discovery")
        self._form_wait_timer = daemon.timer(self._on_form_wait_timeout, name="form_wait")
        self._ack_wait_timer = daemon.timer(self._on_ack_wait_timeout, name="ack_wait")
        self._install_wait_timer = daemon.timer(
            self._on_install_wait_timeout, name="install_wait"
        )

    # ------------------------------------------------------------------
    # lifecycle

    def start(self):
        """Install the boot-time singleton view, then look for peers."""
        self.daemon.install_initial_view(self.view)
        self.trigger_gather("startup")

    def shutdown(self):
        """Stop all protocol timers (daemon is going away)."""
        self._cancel_all_timers()

    # ------------------------------------------------------------------
    # entering GATHER

    def trigger_gather(self, reason):
        """(Re)start membership discovery."""
        if self.state == OPERATIONAL:
            self.daemon.on_leave_operational()
        self._cancel_all_timers()
        self.state = GATHER
        self.gathers_started += 1
        self._m_gathers.inc()
        self._proposal = None
        self._acks = {}
        self._acked_view_id = None
        self.alive = {self.daemon.daemon_id}
        self._heard = {}
        self.daemon.trace("membership", "gather", reason=reason)
        self._join_timer.start(first_delay=0.0)
        self._discovery_timer.start(self.config.discovery_timeout)

    def _broadcast_join(self):
        me, alive = self.daemon.daemon_id, self.alive
        self.daemon.broadcast(JoinMsg(me, alive))
        if len(alive) > 1 and all(self._heard.get(peer) == alive for peer in alive - {me}):
            self._join_timer.stop()  # every member echoed this set: agreed

    # ------------------------------------------------------------------
    # message handlers (wired up by the daemon's dispatcher)

    def on_join(self, message):
        """A peer is reconfiguring; join the gather and note who we hear."""
        sender = message.sender
        if sender == self.daemon.daemon_id:
            return
        if self.state == OPERATIONAL:
            self.trigger_gather("join from {}".format(sender))
        self._heard[sender] = message.alive
        if message.alive != self.alive and self.state == GATHER and not self._join_timer.running:
            self._join_timer.start(first_delay=0.0)  # disagreement, or a new daemon: call again
        if sender not in self.alive:
            self.alive.add(sender)
            if self.state in (FORM_SENT, ACK_SENT):
                self._revert_to_gather("new daemon {} during agreement".format(sender))
            self._discovery_timer.start(self.config.discovery_timeout)

    def on_foreign_traffic(self, sender):
        """Heartbeat or data from a daemon outside the current view."""
        if self.state == OPERATIONAL and sender not in self.view:
            self.trigger_gather("foreign daemon {}".format(sender))

    def on_suspect(self, peer):
        """The failure detector gave up on a view member."""
        if self.state == OPERATIONAL:
            self.trigger_gather("suspected {}".format(peer))

    def on_leave_notice(self, message):
        """A peer shut down voluntarily; reconfigure without waiting."""
        if message.sender == self.daemon.daemon_id:
            return
        if self.state == OPERATIONAL and message.sender in self.view:
            self.trigger_gather("voluntary leave of {}".format(message.sender))

    def _revert_to_gather(self, reason):
        self.state = GATHER
        self._proposal = None
        self._acks = {}
        self._acked_view_id = None
        self._cancel_all_timers()  # JOIN and discovery are off in FORM_SENT and ACK_SENT
        self._join_timer.start(first_delay=0.0)
        self.daemon.trace("membership", "revert_gather", reason=reason)

    # ------------------------------------------------------------------
    # discovery complete -> propose or await proposal

    def _on_discovery_timeout(self):
        if self.state != GATHER:
            return
        members = sorted(self.alive)
        self._join_timer.stop()
        if members[0] == self.daemon.daemon_id:
            self._propose(members)
        else:
            self._form_wait_timer.start(self.config.form_timeout)

    def _propose(self, members):
        view_id = ViewId(self.highest_counter + 1, self.daemon.daemon_id)
        proposal = FormMsg(self.daemon.daemon_id, view_id, members)
        self._proposal = proposal
        self._acks = {self.daemon.daemon_id: self.daemon.make_digest()}
        self._acked_view_id = view_id
        self.state = FORM_SENT
        self.daemon.trace("membership", "form", view=repr(view_id), members=members)
        self.daemon.broadcast(proposal)
        self._ack_wait_timer.start(self.config.form_timeout)
        self._maybe_complete()

    def _on_form_wait_timeout(self):
        self.trigger_gather("no FORM from expected representative")

    def _on_ack_wait_timeout(self):
        missing = sorted(set(self._proposal.members) - set(self._acks)) if self._proposal else []
        self.trigger_gather("ACKs missing from {}".format(missing))

    def _on_install_wait_timeout(self):
        self.trigger_gather("no INSTALL received")

    # ------------------------------------------------------------------
    # proposal handling

    def on_form(self, message):
        """A representative proposed a membership."""
        self.highest_counter = max(self.highest_counter, message.view_id.counter)
        if self.daemon.daemon_id not in message.members:
            if self.state == OPERATIONAL:
                self.trigger_gather("excluded from FORM by {}".format(message.rep))
            return
        if self.state == OPERATIONAL:
            # We missed the gather, but the representative still counts us in.
            self.daemon.on_leave_operational()
            self.alive = set(message.members)
        if self._acked_view_id is not None and not self._acked_view_id < message.view_id:
            return
        self._cancel_all_timers()
        self._proposal = None
        self._acked_view_id = message.view_id
        self.state = ACK_SENT
        digest = self.daemon.make_digest()
        self.daemon.unicast(message.rep, AckMsg(self.daemon.daemon_id, message.view_id, digest))
        self._install_wait_timer.start(self.config.install_timeout)

    def on_ack(self, message):
        """Collect a member's acceptance (representative only)."""
        if self.state != FORM_SENT or self._proposal is None:
            return
        if message.view_id != self._proposal.view_id:
            return
        if message.sender not in self._proposal.members:
            return
        member_view_id = message.digest.old_view_id
        if not member_view_id < self._proposal.view_id:
            # A revived representative's counter restarted low: a member
            # is already at or past the proposal, so its INSTALL would be
            # dropped. Learn the member's counter and propose past it.
            self.highest_counter = max(self.highest_counter, member_view_id.counter)
            self._propose(list(self._proposal.members))
            return
        self._acks[message.sender] = message.digest
        self._maybe_complete()

    def _maybe_complete(self):
        if self._proposal is None or set(self._acks) < set(self._proposal.members):
            return
        recovery = {}
        groups = {}
        # Sorted so the recovery/group union is built in member order,
        # not ACK-arrival order (the insertion order escapes into the
        # InstallMsg every member applies).
        for sender in sorted(self._acks):
            digest = self._acks[sender]
            bucket = recovery.setdefault(digest.old_view_id, {})
            bucket.update(digest.messages)
            for group, members in digest.local_groups.items():
                groups.setdefault(group, set()).update(members)
        install = InstallMsg(
            self.daemon.daemon_id,
            self._proposal.view_id,
            self._proposal.members,
            recovery,
            {group: tuple(sorted(members)) for group, members in groups.items()},
        )
        self._ack_wait_timer.cancel()
        self.daemon.broadcast(install)
        self._apply_install(install)

    # ------------------------------------------------------------------
    # installation

    def on_install(self, message):
        """The representative committed the new view."""
        self.highest_counter = max(self.highest_counter, message.view_id.counter)
        if self.daemon.daemon_id not in message.members:
            if self.state == OPERATIONAL:
                self.trigger_gather("excluded from INSTALL by {}".format(message.rep))
            return
        if not self.view.view_id < message.view_id:
            self.daemon.trace(
                "membership", "stale_install",
                view=repr(message.view_id), current=repr(self.view.view_id),
            )
            return
        if self._acked_view_id != message.view_id:
            # Our digest is not part of this view; rejoin cleanly instead.
            self.trigger_gather("INSTALL {} without matching ACK".format(message.view_id))
            return
        self._apply_install(message)

    def _apply_install(self, install):
        self._cancel_all_timers()
        old_view = self.view
        self.view = DaemonView(install.view_id, install.members)
        self.highest_counter = max(self.highest_counter, install.view_id.counter)
        self.state = OPERATIONAL
        self._proposal = None
        self._acks = {}
        self._acked_view_id = None
        self.alive = set()
        self.views_installed += 1
        self._m_views.inc()
        self.daemon.trace(
            "membership",
            "install",
            view=repr(install.view_id),
            members=list(install.members),
        )
        self.daemon.apply_install(install, old_view)

    # ------------------------------------------------------------------
    # self-stabilization (docs/FAULTS.md, "State corruption")

    def stabilize_audit(self):
        """Local sanity audit of the installed view and the counter.

        ``highest_counter`` must never fall below the installed view's
        counter (a regression would let a future gather mint an old
        ViewId that every peer rejects) — repaired by clamping. In
        OPERATIONAL, the view must contain this daemon and must agree
        with the failure detector's watch set: a phantom member is
        watched by nobody (no JOIN ever armed a timer for it) and a
        dropped member is watched without being in the view, so any
        disagreement means the view list was corrupted. That cannot be
        repaired locally — the true membership is a distributed fact —
        so it is returned as an escalation reason; the caller resolves
        it through :meth:`trigger_gather`, the protocol's universal
        recovery path.

        Returns ``(repairs, escalate_reason)`` where ``repairs`` is a
        list of ``(invariant, was, now)`` triples already applied.
        """
        repairs = []
        floor = self.view.view_id.counter
        if self.highest_counter < floor:
            repairs.append(("highest_counter", self.highest_counter, floor))
            self.highest_counter = floor
        escalate = None
        if self.state == OPERATIONAL:
            members = set(self.view.members)
            if self.daemon.daemon_id not in members:
                escalate = "self missing from installed view"
            else:
                expected = members - {self.daemon.daemon_id}
                if expected != set(self.daemon.fd.watched):
                    escalate = "view/detector disagreement"
        return repairs, escalate

    # ------------------------------------------------------------------

    def _cancel_all_timers(self):
        self._join_timer.stop()
        self._discovery_timer.cancel()
        self._form_wait_timer.cancel()
        self._ack_wait_timer.cancel()
        self._install_wait_timer.cancel()

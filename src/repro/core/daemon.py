"""The Wackamole daemon: Algorithms 1–3 over the Spread client API.

One daemon per server. On startup it connects to the local GCS daemon
and joins the ``wackamole`` group (§4.2). From then on it follows the
state machine of Figure 2:

* a membership notification is the VIEW_CHANGE event: back up the
  table, multicast a STATE message tagged with the new view, move to
  GATHER;
* in GATHER, every incoming STATE message updates the table with
  eager conflict resolution (ResolveConflicts); when a STATE message
  has arrived from *every* member, Reallocate_IPs covers the holes
  deterministically and the daemon returns to RUN;
* in RUN, the representative re-balances on a timeout (Algorithm 3);
  everyone applies BALANCE messages (Change_IPs);
* losing the GCS connection drops every virtual interface and starts
  the reconnect cycle (§4.2);
* the maturity optimisation (§3.4) keeps a freshly booted cluster
  from churning addresses.
"""

from repro.core.balance import compute_balanced_allocation
from repro.core.conflict import resolve_claim
from repro.core.config import WackamoleConfig
from repro.core.iface import InterfaceManager
from repro.core.messages import (
    AllocMsg,
    ArpShareMsg,
    BalanceMsg,
    MatureMsg,
    StateMsg,
)
from repro.core.notify import ArpNotifier
from repro.core.reallocate import reallocate_ips
from repro.core.state import GATHER, RUN, StateMachine
from repro.core.table import AllocationTable
from repro.gcs.client import SpreadConnectionError
from repro.sim.process import Process


class WackamoleDaemon(Process):
    """N-way fail-over engine for one server."""

    def __init__(self, host, spread, config, client_name="wack"):
        super().__init__(host.sim, "wack@{}".format(host.name))
        self.host = host
        self.spread = spread
        if not isinstance(config, WackamoleConfig):
            raise TypeError("config must be a WackamoleConfig")
        self.config = config
        host.register_service(self)
        self.notifier = ArpNotifier(host, config)
        self.iface = InterfaceManager(host, config, self.notifier)
        metrics = self.sim.metrics
        self._metrics = metrics
        self._m_reallocations = metrics.counter("core.reallocations", node=host.name)
        self._m_balances_sent = metrics.counter("core.balances_sent", node=host.name)
        self._m_balances_applied = metrics.counter("core.balances_applied", node=host.name)
        self._m_conflicts = metrics.counter("core.conflicts_dropped", node=host.name)
        self._m_reconnects = metrics.counter("core.reconnects", node=host.name)
        self.machine = StateMachine(trace=self._trace_transition)
        self.client = None
        self.client_name = client_name
        self.member_name = None
        self.view = None
        self.table = None
        self.old_table = None
        self.mature = False
        self.applied = 0  # messages applied in this view (core/audit.py)
        self._state_msgs = {}
        self._preferences = {}
        self._matures = {}
        self._weights = {}
        self._maturity_timer = self.timer(self._on_maturity_timeout, name="maturity")
        self._balance_timer = self.timer(self._on_balance_timeout, name="balance")
        self._reconnect_timer = self.timer(self._try_connect, name="reconnect")
        self._arp_share_timer = None
        if config.arp_share_interval > 0:
            self._arp_share_timer = self.periodic(
                self._share_arp_cache, config.arp_share_interval, name="arp_share"
            )
        self._reannounce_timer = None
        if config.profile.arp_reannounce_interval > 0:
            self._reannounce_timer = self.periodic(
                self._reannounce_vips,
                config.profile.arp_reannounce_interval,
                name="arp_reannounce",
            )
        self._stabilize_timer = None
        if config.profile.audit_interval > 0:
            self._stabilize_timer = self.periodic(
                self._stabilize_audit,
                config.profile.audit_interval,
                name="stabilize",
            )
        self.stabilize_repairs = 0
        # Wire-level duplicate-claim detection (docs/FAULTS.md): the
        # host's ARP service reports foreign claims on held VIPs here.
        # Detection is always on; resolution is config-gated.
        host.arp.on_vip_conflict = self._on_arp_conflict
        self._conflict_holddowns = set()
        self._m_vip_conflicts = None
        self.reallocations = 0
        self.balances_sent = 0
        self.balances_applied = 0
        self.conflicts_dropped = 0
        self.reconnect_attempts = 0
        self.arp_conflicts_seen = 0
        self.arp_conflicts_resolved = 0

    # ------------------------------------------------------------------
    # lifecycle

    def start(self):
        """Connect to the local GCS daemon (retrying if it is down)."""
        self._clear_stale_bindings()
        self._try_connect()

    def _clear_stale_bindings(self):
        """Unbind managed VIPs a dead predecessor left on the NICs.

        Kernel address bindings outlive the process that made them: a
        killed daemon's VIPs stay bound, the cluster re-acquires them
        elsewhere, and a supervisor-restarted replacement would
        otherwise ratify a permanent physical duplicate it never knew
        it had. A freshly started daemon owns nothing by definition,
        so any managed address already on a local interface is stale.
        """
        for group in self.config.vip_groups:
            if self.iface.owns(group.group_id):
                continue
            for address in group.addresses:
                for nic in self.host.nics:
                    if nic.owns_ip(address):
                        nic.unbind_ip(address)
                        self.trace(
                            "wackamole", "stale_binding_cleared", ip=str(address)
                        )

    def stop(self):
        """Abrupt daemon death (host crash path); interfaces stay bound.

        A crashed Wackamole daemon cannot clean up after itself —
        stale bindings are exactly what the surviving cluster must
        take over.
        """
        super().stop()

    def shutdown(self):
        """Graceful administrative exit (§6's voluntary-leave case).

        Releases every virtual interface first, then leaves the group
        via the lightweight path, so remaining members reconfigure in
        milliseconds rather than after failure-detection timeouts.
        """
        if not self.alive:
            return
        self.trace("wackamole", "shutdown")
        self.iface.release_all()
        if self.client is not None and self.client.connected:
            self.client.disconnect()
        super().stop()

    # ------------------------------------------------------------------
    # GCS connection management (§4.2)

    def _try_connect(self):
        if not self.alive:
            return
        self.reconnect_attempts += 1
        self._m_reconnects.inc()
        # Like the real system, connect to whatever GCS daemon currently
        # runs on this host (a restarted daemon is a new process).
        current = getattr(self.host, "spread_daemon", None)
        if current is not None:
            self.spread = current
        try:
            client = self.spread.connect(self.client_name)
        except SpreadConnectionError:
            self._reconnect_timer.start(self.config.profile.reconnect_interval)
            return
        self.sim.coverage_changing()
        self.client = client
        self.member_name = client.private_name
        client.on_message = self._on_message
        client.on_group_view = self._on_group_view
        client.on_disconnect = self._on_disconnect
        self.machine = StateMachine(trace=self._trace_transition)
        self.view = None
        self.table = None
        self._state_msgs = {}
        if not self.mature:
            self._maturity_timer.start(self.config.maturity_timeout)
        if self._arp_share_timer is not None:
            self._arp_share_timer.start()
        if self._reannounce_timer is not None:
            self._reannounce_timer.start()
        if self._stabilize_timer is not None:
            self._stabilize_timer.start()
        client.join(self.config.group_name)
        self.trace("wackamole", "connected", daemon=self.spread.daemon_id)

    def _on_disconnect(self):
        if not self.alive:
            return
        # Without the GCS guarantees correctness cannot be ensured:
        # drop all virtual interfaces and cycle reconnect attempts.
        self.trace("wackamole", "gcs_disconnected")
        self.sim.coverage_changing()
        self.iface.release_all()
        self.client = None
        self.view = None
        self.table = None
        self._balance_timer.cancel()
        self._maturity_timer.cancel()
        if self._arp_share_timer is not None:
            self._arp_share_timer.stop()
        if self._reannounce_timer is not None:
            self._reannounce_timer.stop()
        if self._stabilize_timer is not None:
            self._stabilize_timer.stop()
        self._reconnect_timer.start(self.config.profile.reconnect_interval)

    # ------------------------------------------------------------------
    # VIEW_CHANGE (Algorithm 1 lines 1-4 / Algorithm 2 lines 7-9)

    def _on_group_view(self, view):
        if not self.alive:
            return
        self.sim.coverage_changing()
        self.machine.fire("VIEW_CHANGE")
        self._balance_timer.cancel()
        self.old_table = self.table
        self.view = view
        self.applied = 0
        self.table = AllocationTable(self.config.slot_ids(), members=view.members)
        self._state_msgs = {}
        self._preferences = {}
        self._matures = {}
        self._weights = {}
        self.trace(
            "wackamole", "view_change", view=view.view_id, members=list(view.members)
        )
        self._send_state_msg()

    def _send_state_msg(self):
        message = StateMsg(
            self.member_name,
            self.view.view_id,
            self.iface.owned_slots(),
            self.config.prefer,
            self.mature,
            weight=self.config.weight,
        )
        self.client.multicast(self.config.group_name, message)

    # ------------------------------------------------------------------
    # message dispatch

    def _on_message(self, message):
        if not self.alive:
            return
        self.sim.coverage_changing()
        self.applied += 1
        payload = message.payload
        if isinstance(payload, StateMsg):
            self._on_state_msg(payload)
        elif isinstance(payload, BalanceMsg):
            self._on_balance_msg(payload)
        elif isinstance(payload, AllocMsg):
            self._on_alloc_msg(payload)
        elif isinstance(payload, MatureMsg):
            self._on_mature_msg(payload)
        elif isinstance(payload, ArpShareMsg):
            self.notifier.integrate_share(payload.entries, self.now)

    # ------------------------------------------------------------------
    # GATHER (Algorithm 2)

    def _on_state_msg(self, message):
        if self.machine.state != GATHER:
            return
        if self.view is None or message.view_id != self.view.view_id:
            return
        if message.sender not in self.table.members:
            return
        self._state_msgs[message.sender] = message
        self._preferences[message.sender] = message.preferences
        self._matures[message.sender] = message.mature
        self._weights[message.sender] = message.weight
        if message.mature and not self.mature:
            self._become_mature("state message from mature server")
        for slot in message.owned:
            if slot not in self.table:
                continue
            winner, loser = resolve_claim(self.table, slot, message.sender)
            if loser is not None:
                self.conflicts_dropped += 1
                self._m_conflicts.inc()
                self.trace("wackamole", "conflict", slot=slot, winner=winner, loser=loser)
                if loser == self.member_name and self.config.eager_conflict_resolution:
                    # §3.4: restore network-level consistency as soon
                    # as the conflict is noticed.
                    self.iface.release(slot)
                elif (
                    winner == self.member_name
                    and self.config.profile.conflict_reannounce
                    and self.iface.owns(slot)
                ):
                    # We keep the address, but the loser's earlier
                    # announcements may have repointed client caches at
                    # it (acquire is idempotent and stays silent for a
                    # binding we never dropped) — repair them now.
                    self.trace("wackamole", "conflict_reannounce", slot=slot)
                    self.iface.reannounce(slot)
        # One entry per member, keyed by sender: every member has sent.
        if len(self._state_msgs) == len(self.table.members):
            self._complete_gather()

    def _complete_gather(self):
        if any(self._matures.values()) and not self._reallocate():
            return
        self.machine.fire("REALLOCATION_COMPLETE")
        self.trace("wackamole", "run", allocation=self.table.as_dict())
        self._maybe_start_balance_timer()

    def _on_alloc_msg(self, message):
        if self.view is None or message.view_id != self.view.view_id:
            return
        if self.machine.state not in (GATHER, RUN):
            return
        completing_gather = self.machine.state == GATHER
        self.table.adopt(message.allocation)
        self.reallocations += 1
        self._m_reallocations.inc()
        self._apply_table()
        if completing_gather:
            self.machine.fire("REALLOCATION_COMPLETE")
            self.trace("wackamole", "run", allocation=self.table.as_dict())
            self._maybe_start_balance_timer()
        else:
            # In RUN an imposed allocation is a Change_IPs application,
            # exactly like a BALANCE message (Figure 2 stays intact).
            self.machine.fire("BALANCE_MSG")

    def _reallocate(self):
        """Cover the holes (Reallocate_IPs); false when left to an AllocMsg: under
        §4.2's variant the representative imposes it via an agreed-ordered
        message and everyone (itself included) applies it on delivery."""
        if self.config.representative_allocation:
            if self.member_name == self.table.members[0]:
                decided = self.table.copy()
                reallocate_ips(decided, self._preferences, self._weights)
                self.client.multicast(
                    self.config.group_name,
                    AllocMsg(self.member_name, self.view.view_id, decided.as_dict()),
                )
            return False
        # Deterministic at every member: same table, same messages, same
        # order -> same allocation, no extra communication.
        reallocate_ips(self.table, self._preferences, self._weights)
        self.reallocations += 1
        self._m_reallocations.inc()
        self._apply_table()
        return True

    def _apply_table(self):
        """Make local bindings match the (complete, agreed) table."""
        for slot in self.table.slots:
            owner = self.table.owner(slot)
            if owner == self.member_name:
                self.iface.acquire(slot)
            elif self.iface.owns(slot):
                self.iface.release(slot)

    # ------------------------------------------------------------------
    # BALANCE (Algorithm 3)

    def _maybe_start_balance_timer(self):
        if (
            self.config.balance_enabled
            and self.mature
            and self.view is not None
            and self.view.members
            and self.view.members[0] == self.member_name
        ):
            self._balance_timer.start(self.config.balance_timeout)

    def _on_balance_timeout(self):
        if self.machine.state != RUN or self.client is None or not self.mature:
            return
        # Atomic: compute, broadcast and return to RUN in one step; no
        # event can interleave (the paper's delay-event semantics).
        self.machine.fire("BALANCE_TIMEOUT")
        allocation = compute_balanced_allocation(
            self.table.members,
            self.table.slots,
            self.table.as_dict(),
            self._preferences,
            self._weights,
        )
        if allocation != self.table.as_dict():
            message = BalanceMsg(self.member_name, self.view.view_id, allocation)
            self.client.multicast(self.config.group_name, message)
            self.balances_sent += 1
            self._m_balances_sent.inc()
            self.trace("wackamole", "balance_sent", allocation=allocation)
        self.machine.fire("BALANCE_COMPLETE")
        self._balance_timer.start(self.config.balance_timeout)

    def _on_balance_msg(self, message):
        if self.machine.state != RUN:
            # Algorithm 2 line 10-11: ignored during GATHER.
            return
        if self.view is None or message.view_id != self.view.view_id:
            return
        self.machine.fire("BALANCE_MSG")
        self.table.adopt(message.allocation)
        self._apply_table()
        self.balances_applied += 1
        self._m_balances_applied.inc()

    # ------------------------------------------------------------------
    # maturity bootstrap (§3.4)

    def _on_maturity_timeout(self):
        if self.mature or self.client is None:
            return
        self._become_mature("maturity timeout")
        if self.view is not None:
            self.client.multicast(
                self.config.group_name, MatureMsg(self.member_name, self.view.view_id)
            )

    def _on_mature_msg(self, message):
        if self.view is None or message.view_id != self.view.view_id:
            return
        self._matures[message.sender] = True
        if not self.mature:
            self._become_mature("mature notification")
        if self.machine.state == RUN and not self.table.is_complete() and self._reallocate():
            self.trace("wackamole", "mature_reallocation", allocation=self.table.as_dict())
            self._maybe_start_balance_timer()

    @property
    def maturity_agreed(self):
        """True once an applied message of this view says a member is mature."""
        return any(self._matures.values())

    # What the Property-1 judge reads besides (core/audit.py).
    state = property(lambda self: self.machine.state)
    lan = property(lambda self: self.spread.lan)
    slot_table = property(lambda self: self.config.slot_table)

    def _become_mature(self, reason):
        self.sim.coverage_changing()
        self.mature = True
        self._maturity_timer.cancel()
        self.trace("wackamole", "mature", reason=reason)

    # ------------------------------------------------------------------
    # wire-level duplicate-claim handling (docs/FAULTS.md)

    def _slot_for_ip(self, ip):
        for group in self.config.vip_groups:
            if ip in group.addresses:
                return group.group_id
        return None

    def _on_arp_conflict(self, ip, claimant_mac):
        """A foreign ARP claim arrived for a VIP this host has bound.

        This is the network-level symptom of a duplicate VIP after an
        asymmetric partition heals: two members each believe they own
        the address, and the group-level GATHER may be unable to notice
        (each side is in its own view). Detection always counts and
        traces; with the profile's ``arp_conflict_resolution`` a holddown
        is armed and the conflict is re-examined once it expires (see
        :meth:`_resolve_arp_conflict` for who backs off).
        """
        if not self.alive:
            return
        slot = self._slot_for_ip(ip)
        if slot is None or not self.iface.owns(slot):
            return
        self.arp_conflicts_seen += 1
        if self._m_vip_conflicts is None:
            # Lazily created so conflict-free runs keep their metric
            # catalog (totals() reports zero-valued counters too).
            self._m_vip_conflicts = self._metrics.counter(
                "core.vip_conflicts", node=self.host.name
            )
        self._m_vip_conflicts.inc()
        self.trace("wackamole", "vip_conflict", slot=slot)
        if not self.config.profile.arp_conflict_resolution:
            return
        if slot in self._conflict_holddowns:
            return
        self._conflict_holddowns.add(slot)
        self.after(
            self.config.profile.arp_conflict_holddown,
            self._resolve_arp_conflict,
            slot,
            claimant_mac,
        )

    def _resolve_arp_conflict(self, slot, claimant_mac):
        self._conflict_holddowns.discard(slot)
        if not self.iface.owns(slot):
            # The group-level protocol (a reallocation or a balance)
            # moved the slot during the holddown; nothing to fight over.
            return
        if self.view is not None and len(self.view.members) > 1:
            # A multi-member view agreed we own this slot; the claimant
            # is outside our component (a deaf host mid-partition still
            # announces, and its frames reach us even though ours never
            # reach it). Releasing here would uncover the slot for every
            # client on our side — keep it and repair the caches its
            # announcements poisoned. The singleton-vs-singleton MAC
            # tie-break below handles the true split-brain case.
            self.arp_conflicts_resolved += 1
            self.trace("wackamole", "vip_conflict_keep", slot=slot)
            self.iface.reannounce(slot)
            return
        group = self.config.group(slot)
        nic = self.iface._nic_for(group.addresses[0])
        if claimant_mac.value < nic.mac.value:
            self.arp_conflicts_resolved += 1
            self.trace("wackamole", "vip_conflict_release", slot=slot)
            self.iface.release(slot)
            if self.table is not None and slot in self.table.slots:
                if self.table.owner(slot) == self.member_name:
                    self.table.set_owner(slot, None)
        else:
            # We win: make sure the segment's caches point back here.
            self.arp_conflicts_resolved += 1
            self.trace("wackamole", "vip_conflict_keep", slot=slot)
            self.iface.reannounce(slot)

    def _reannounce_vips(self):
        """Periodic gratuitous re-announcement of every held VIP."""
        if self.client is None:
            return
        self.iface.reannounce_all()

    # ------------------------------------------------------------------
    # self-stabilization (docs/FAULTS.md, "State corruption")

    def _stabilize_audit(self):
        """Periodic local invariant audit: table vs. actual bindings.

        In RUN the agreed allocation table and the interface bindings
        must agree slot-for-slot (``_apply_table`` establishes exactly
        that after every agreed message). Disagreement means local state
        was corrupted: a slot the table assigns here but the interface
        does not hold is re-acquired (rebind + ARP announce, repairing
        the caches too); a held slot the table assigns elsewhere is a
        physical duplicate and is released — the member every copy of
        the agreed table names as owner keeps defending it. Both repairs
        ride the existing acquire/release/announce paths.
        """
        if self.client is None or self.table is None or self.machine.state != RUN:
            return
        for slot in self.table.slots:
            owner = self.table.owner(slot)
            if owner == self.member_name and not self.iface.owns(slot):
                self._stabilize_repair("binding_lost", slot)
                self.iface.acquire(slot)
            elif owner != self.member_name and self.iface.owns(slot):
                self._stabilize_repair("binding_foreign", slot)
                self.iface.release(slot)

    def _stabilize_repair(self, invariant, slot):
        self.stabilize_repairs += 1
        self._metrics.inc("core.stabilize_repairs", node=self.host.name)
        self.trace("stabilize", "repair", invariant=invariant, slot=slot)

    # ------------------------------------------------------------------
    # ARP cache sharing (§5.2)

    def _share_arp_cache(self):
        if self.client is None or self.view is None:
            return
        entries = self.notifier.collect_entries()
        if entries:
            self.client.multicast(
                self.config.group_name, ArpShareMsg(self.member_name, entries)
            )

    # ------------------------------------------------------------------

    def status(self):
        """Snapshot for the admin channel and tests."""
        return {
            "host": self.host.name,
            "state": self.machine.state,
            "mature": self.mature,
            "connected": self.client is not None and self.client.connected,
            "view": self.view.view_id if self.view is not None else None,
            "members": list(self.view.members) if self.view is not None else [],
            "owned": list(self.iface.owned_slots()),
            "table": self.table.as_dict() if self.table is not None else {},
        }

    def _trace_transition(self, event, to_state):
        self._metrics.inc("core.transitions", node=self.host.name, state=to_state)
        self.trace("wackamole", "transition", trigger=event, state=to_state)

    def __repr__(self):
        return "WackamoleDaemon({}, {}, owns={})".format(
            self.host.name, self.machine.state, list(self.iface.owned_slots())
        )

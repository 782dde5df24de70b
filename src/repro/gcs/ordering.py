"""Agreed (totally ordered) delivery within one installed view.

The representative of the view doubles as sequencer: members unicast
submissions to it, it assigns consecutive sequence numbers and
broadcasts. Receivers deliver strictly in sequence, NACKing gaps. The
full per-view message log is retained so the membership protocol can
ship it in recovery digests — that log is what makes Virtual Synchrony
across view changes possible.
"""

from repro.gcs.messages import NackMsg, OrderedMsg, SubmitMsg


class PendingSubmission:
    """A locally originated message not yet seen back in the total order."""

    __slots__ = ("msg_id", "kind", "group", "payload")

    def __init__(self, msg_id, kind, group, payload):
        self.msg_id = msg_id
        self.kind = kind
        self.group = group
        self.payload = payload


class ViewOrderer:
    """Sequencing, gap repair, and in-order delivery for one view."""

    def __init__(self, daemon, view):
        self._daemon = daemon
        self.view_id = view.view_id
        self.members = view.members
        self.sequencer = view.members[0]
        self.log = {}
        # Highest key of ``log``, kept beside it: raised where the log
        # gains an entry (``_order``, ``on_ordered`` — the log never
        # loses one) and re-derived by :meth:`stabilize_audit`, so the
        # gap test a heard heartbeat makes never scans the log.
        self._log_top = 0
        self.delivered_aru = 0
        self.advertised_top = 0
        self.frozen = False
        self._next_assign = 1
        self._seen_submits = set()
        self._pending = {}
        # The daemon's, fired into its current orderer: nothing keeps a retired one.
        self._resubmit_timer = daemon.resubmit_timer
        self._nack_timer = daemon.nack_timer

    @property
    def is_sequencer(self):
        """True when this daemon orders messages for the view."""
        return self._daemon.daemon_id == self.sequencer

    # ------------------------------------------------------------------
    # sending

    def submit(self, kind, group, payload, msg_id=None):
        """Originate one message into the total order."""
        if msg_id is None:
            msg_id = self._daemon.next_msg_id()
        if self.frozen:
            self._pending[msg_id] = PendingSubmission(msg_id, kind, group, payload)
            return msg_id
        if self.is_sequencer:
            self._order(self._daemon.daemon_id, msg_id, kind, group, payload)
        else:
            self._pending[msg_id] = PendingSubmission(msg_id, kind, group, payload)
            self._unicast_submit(msg_id, kind, group, payload)
            if not self._resubmit_timer.armed:
                self._resubmit_timer.start(self._daemon.config.resubmit_interval)
        return msg_id

    def _unicast_submit(self, msg_id, kind, group, payload):
        message = SubmitMsg(
            self._daemon.daemon_id, self.view_id, msg_id, kind, group, payload
        )
        self._daemon.unicast(self.sequencer, message)

    def resubmit(self):
        """Resubmit timer: unicast every pending submission again."""
        if self.frozen or not self._daemon.alive or not self._pending:
            return
        for msg_id in sorted(self._pending):
            pending = self._pending[msg_id]
            self._unicast_submit(
                pending.msg_id, pending.kind, pending.group, pending.payload,
            )
        self._resubmit_timer.start(self._daemon.config.resubmit_interval)

    # ------------------------------------------------------------------
    # sequencer side

    def on_submit(self, message):
        """Order a member's submission (idempotent under retries)."""
        if self.frozen or not self.is_sequencer or message.view_id != self.view_id:
            return
        key = (message.sender, message.msg_id)
        if key in self._seen_submits:
            return
        self._seen_submits.add(key)
        self._order(
            message.sender,
            message.msg_id,
            message.kind,
            message.group,
            message.payload,
        )

    def _order(self, origin, msg_id, kind, group, payload):
        seq = self._next_assign
        # Self-stabilization guard: an uncorrupted sequencer never holds
        # its next assignment in the log, so this loop is a no-op in
        # every reachable state; after counter corruption it prevents a
        # silent overwrite of an already-broadcast sequence.
        while seq in self.log:
            seq += 1
        self._next_assign = seq + 1
        ordered = OrderedMsg(
            self.view_id, seq, origin, msg_id, kind, group, payload
        )
        self.log[seq] = ordered
        if seq > self._log_top:
            self._log_top = seq
        self._daemon.broadcast(ordered)
        self._deliver_ready()

    def on_nack(self, message):
        """Retransmit sequences a member reports missing."""
        if not self.is_sequencer or message.view_id != self.view_id:
            return
        for seq in message.missing:
            ordered = self.log.get(seq)
            if ordered is not None:
                self._daemon.unicast(message.sender, ordered)

    # ------------------------------------------------------------------
    # receiver side

    def on_ordered(self, message):
        """Accept one sequenced broadcast for this view."""
        if self.frozen or message.view_id != self.view_id:
            return
        if message.seq in self.log:
            return
        self.log[message.seq] = message
        if message.seq > self._log_top:
            self._log_top = message.seq
        if message.origin == self._daemon.daemon_id:
            self._pending.pop(message.msg_id, None)
        self._deliver_ready()
        if self._has_gap() and not self._nack_timer.armed:
            self._nack_timer.start(self._daemon.config.gap_nack_delay)

    def top_seq(self):
        """Highest sequence number known in this view."""
        return max(self._log_top, self.delivered_aru, self.advertised_top)

    def on_heartbeat(self, view_id, top_seq):
        """A peer's heartbeat: its top sequence.

        The advertised top exposes a lost *tail* broadcast (a gap after
        the last message). An install hands every member the same
        ``ViewId`` object, so identity usually settles the view test.
        """
        if self.frozen or not (view_id is self.view_id or view_id == self.view_id):
            return
        if top_seq > self.advertised_top:
            self.advertised_top = top_seq
        if self._has_gap() and not self._nack_timer.armed:
            self._nack_timer.start(self._daemon.config.gap_nack_delay)

    def _deliver_ready(self):
        while not self.frozen and (self.delivered_aru + 1) in self.log:
            self.delivered_aru += 1
            self._daemon.apply_ordered(self.log[self.delivered_aru])

    def _has_gap(self):
        # top_seq() > delivered_aru, without the call or the maximum.
        delivered = self.delivered_aru
        return self._log_top > delivered or self.advertised_top > delivered

    def send_nack(self):
        """NACK timer: ask the sequencer for the gap's sequences."""
        if self.frozen or not self._daemon.alive or not self._has_gap():
            return
        missing = [
            seq
            for seq in range(self.delivered_aru + 1, self.top_seq() + 1)
            if seq not in self.log
        ]
        if missing:
            self._daemon.unicast(
                self.sequencer, NackMsg(self._daemon.daemon_id, self.view_id, missing)
            )
        self._nack_timer.start(self._daemon.config.gap_nack_delay)

    # ------------------------------------------------------------------
    # self-stabilization (docs/FAULTS.md, "State corruption")

    def stabilize_audit(self):
        """Re-derive the ordering counters from the log.

        The log is the authoritative record: ``_log_top`` must equal its
        highest key, the sequencer's next assignment must sit past that,
        and the delivery point can never be negative. Each of those is
        repaired locally (the counters are pure derivations).
        A delivery point *ahead* of the contiguous prefix cannot be
        repaired locally — rolling it back would redeliver — so it is
        returned as an escalation reason for the daemon to resolve via a
        membership GATHER (the install's recovery digests rebuild the
        delivery state).

        Returns ``(repairs, escalate_reason)`` where ``repairs`` is a
        list of ``(invariant, was, now)`` triples already applied.
        """
        repairs = []
        if self.frozen:
            return repairs, None
        contiguous = 0
        while (contiguous + 1) in self.log:
            contiguous += 1
        if self.delivered_aru < 0:
            repairs.append(("delivered_aru", self.delivered_aru, 0))
            self.delivered_aru = 0
        top = max(self.log, default=0)
        if self._log_top != top:
            repairs.append(("log_top", self._log_top, top))
            self._log_top = top
        if self.is_sequencer and self._next_assign <= top:
            repairs.append(("next_assign", self._next_assign, top + 1))
            self._next_assign = top + 1
        escalate = None
        if self.delivered_aru > contiguous:
            escalate = "delivered_aru {} ahead of contiguous log {}".format(
                self.delivered_aru, contiguous
            )
        elif repairs:
            # Repaired counters may have been masking an unserviced gap.
            self._deliver_ready()
            if self._has_gap() and not self._nack_timer.armed:
                self._nack_timer.start(self._daemon.config.gap_nack_delay)
        return repairs, escalate

    # ------------------------------------------------------------------
    # view-change support

    def freeze(self):
        """Stop delivering and sending; the view is being torn down."""
        self.frozen = True
        self._resubmit_timer.cancel()
        self._nack_timer.cancel()

    def pending_submissions(self):
        """Messages originated here that never appeared in the order."""
        return [self._pending[msg_id] for msg_id in sorted(self._pending)]

    def mark_recovered(self, msg_id):
        """Drop a pending submission that surfaced during recovery."""
        self._pending.pop(msg_id, None)

    def absorb_recovered(self, seq):
        """Advance the delivery point past a recovered message.

        During installation the daemon replays the members' recovery
        union in sequence order; the orderer — not the caller — owns
        ``delivered_aru``, so it advances its own counter and reports
        whether ``seq`` was new (True: the caller should apply the
        message) or already delivered in this view (False: skip).
        """
        if seq <= self.delivered_aru:
            return False
        self.delivered_aru = seq
        return True

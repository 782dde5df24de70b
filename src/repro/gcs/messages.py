"""Wire messages between daemons, and the client-facing message types.

Daemon-to-daemon messages travel as UDP payloads over the simulated
LAN. Client-facing :class:`SpreadMessage` / :class:`GroupView` objects
are what a connected application (Wackamole) actually receives.
All messages are treated as immutable once sent.
"""


# ----------------------------------------------------------------------
# daemon wire messages


class Heartbeat:
    """Periodic liveness announcement (the 'distributed heartbeat').

    Carries the sender's view and highest known sequence number so
    receivers can detect a lost *tail* broadcast (a gap after the last
    message, invisible to ordinary gap detection) and NACK it.
    """

    __slots__ = ("sender", "view_id", "top_seq")

    def __init__(self, sender, view_id=None, top_seq=0):
        self.sender = sender
        self.view_id = view_id
        self.top_seq = top_seq

    def __repr__(self):
        return "Heartbeat({}, top={})".format(self.sender, self.top_seq)


class JoinMsg:
    """Gather-phase announcement: 'I am reconfiguring; here is who I see'."""

    __slots__ = ("sender", "alive")

    def __init__(self, sender, alive):
        self.sender = sender
        self.alive = frozenset(alive)

    def __repr__(self):
        return "JoinMsg({}, alive={})".format(self.sender, sorted(self.alive))


class FormMsg:
    """Representative's membership proposal."""

    __slots__ = ("rep", "view_id", "members")

    def __init__(self, rep, view_id, members):
        self.rep = rep
        self.view_id = view_id
        self.members = tuple(sorted(members))

    def __repr__(self):
        return "FormMsg({}, {})".format(self.view_id, list(self.members))


class AckMsg:
    """Member's acceptance of a proposal, carrying its recovery digest.

    The digest is what makes Virtual Synchrony work: the member's old
    view id, every ordered message it holds from that view, how far it
    has delivered, and its local clients' group memberships.
    """

    __slots__ = ("sender", "view_id", "digest")

    def __init__(self, sender, view_id, digest):
        self.sender = sender
        self.view_id = view_id
        self.digest = digest

    def __repr__(self):
        return "AckMsg({} for {})".format(self.sender, self.view_id)


class RecoveryDigest:  # repro: not-wire (payload inside AckMsg, never dispatched)
    """Per-member state shipped inside an AckMsg."""

    __slots__ = ("old_view_id", "messages", "delivered_aru", "local_groups")

    def __init__(self, old_view_id, messages, delivered_aru, local_groups):
        self.old_view_id = old_view_id
        self.messages = dict(messages)
        self.delivered_aru = delivered_aru
        self.local_groups = {group: tuple(members) for group, members in local_groups.items()}

    def __repr__(self):
        return "RecoveryDigest(old={}, msgs={}, aru={})".format(
            self.old_view_id, len(self.messages), self.delivered_aru
        )


class InstallMsg:
    """Representative's commit of the new view.

    ``recovery`` maps old view id -> {seq: OrderedMsg} union over the
    digests of members arriving from that old view; ``groups`` is the
    authoritative group map for the new view.
    """

    __slots__ = ("rep", "view_id", "members", "recovery", "groups")

    def __init__(self, rep, view_id, members, recovery, groups):
        self.rep = rep
        self.view_id = view_id
        self.members = tuple(sorted(members))
        self.recovery = recovery
        self.groups = groups

    def __repr__(self):
        return "InstallMsg({}, {})".format(self.view_id, list(self.members))


class LeaveNotice:
    """Voluntary daemon shutdown; triggers immediate reconfiguration."""

    __slots__ = ("sender",)

    def __init__(self, sender):
        self.sender = sender

    def __repr__(self):
        return "LeaveNotice({})".format(self.sender)


class SubmitMsg:
    """A member's request that the sequencer order one payload."""

    __slots__ = ("sender", "view_id", "msg_id", "kind", "group", "payload")

    def __init__(self, sender, view_id, msg_id, kind, group, payload):
        self.sender = sender
        self.view_id = view_id
        self.msg_id = msg_id
        self.kind = kind
        self.group = group
        self.payload = payload

    def __repr__(self):
        return "SubmitMsg({} #{} {} to {})".format(
            self.sender, self.msg_id, self.kind, self.group
        )


class OrderedMsg:
    """A sequenced broadcast: the unit of agreed delivery.

    ``kind`` distinguishes application data from lightweight group
    join/leave events, which travel in the same total order so that all
    daemons apply group changes identically.
    """

    __slots__ = (
        "view_id", "seq", "origin", "msg_id", "kind", "group", "payload",
    )

    DATA = "data"
    JOIN_GROUP = "join_group"
    LEAVE_GROUP = "leave_group"

    def __init__(self, view_id, seq, origin, msg_id, kind, group, payload):
        self.view_id = view_id
        self.seq = seq
        self.origin = origin
        self.msg_id = msg_id
        self.kind = kind
        self.group = group
        self.payload = payload

    def __repr__(self):
        return "OrderedMsg({} seq={} {} from {})".format(
            self.view_id, self.seq, self.kind, self.origin
        )


class NackMsg:
    """Gap report: ask the sequencer to retransmit missing sequences."""

    __slots__ = ("sender", "view_id", "missing")

    def __init__(self, sender, view_id, missing):
        self.sender = sender
        self.view_id = view_id
        self.missing = tuple(missing)

    def __repr__(self):
        return "NackMsg({} missing {})".format(self.sender, list(self.missing))


# ----------------------------------------------------------------------
# client-facing types


class SpreadMessage:  # repro: not-wire (client-facing, delivered not dispatched)
    """A regular (agreed-ordered) group message delivered to a client."""

    __slots__ = ("group", "sender", "payload", "view_id")

    def __init__(self, group, sender, payload, view_id):
        self.group = group
        self.sender = sender
        self.payload = payload
        self.view_id = view_id

    def __repr__(self):
        return "SpreadMessage({} from {} in {})".format(self.group, self.sender, self.view_id)


class GroupView:  # repro: not-wire (client-facing, delivered not dispatched)
    """A group membership notification delivered to a client.

    ``members`` is the identically ordered list of member names
    ('client@daemon') that the Wackamole algorithm's deterministic
    procedures rely on. ``caused_by`` records what changed ('network',
    'join', 'leave', 'disconnect').
    """

    __slots__ = ("group", "view_id", "members", "caused_by")

    def __init__(self, group, view_id, members, caused_by):
        self.group = group
        self.view_id = view_id
        self.members = tuple(members)
        self.caused_by = caused_by

    def __repr__(self):
        return "GroupView({} {} members={} by {})".format(
            self.group, self.view_id, list(self.members), self.caused_by
        )

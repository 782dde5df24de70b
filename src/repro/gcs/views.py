"""View identities and membership views.

A :class:`ViewId` totally orders daemon memberships; Wackamole tags its
STATE messages with the view they were initiated in and discards
messages from other views (Algorithm 2, line 1). A :class:`DaemonView`
carries the identically ordered member list the correctness proof
relies on.
"""


class ViewId:
    """Totally ordered identifier of one installed membership."""

    __slots__ = ("counter", "rep")

    def __init__(self, counter, rep):
        self.counter = int(counter)
        self.rep = rep

    def key(self):
        """Sort key; counter dominates, representative id breaks ties."""
        return (self.counter, self.rep)

    def __eq__(self, other):
        # Inlined key comparison: equality runs on every received
        # heartbeat/ordered message, and building two tuples per call
        # shows up in campaign profiles.
        return (
            isinstance(other, ViewId)
            and self.counter == other.counter
            and self.rep == other.rep
        )

    def __lt__(self, other):
        return self.key() < other.key()

    def __le__(self, other):
        return self.key() <= other.key()

    def __hash__(self):
        return hash(("ViewId",) + self.key())

    def __repr__(self):
        return "ViewId({}, rep={})".format(self.counter, self.rep)


class DaemonView:
    """One installed daemon membership: id plus uniquely ordered members."""

    __slots__ = ("view_id", "members", "_member_set")

    def __init__(self, view_id, members):
        self.view_id = view_id
        self.members = tuple(sorted(members))
        # Membership is tested once per heartbeat heard.
        self._member_set = frozenset(self.members)

    @property
    def representative(self):
        """The deterministically chosen first member."""
        return self.members[0]

    def __contains__(self, daemon_id):
        return daemon_id in self._member_set

    def __eq__(self, other):
        return (
            isinstance(other, DaemonView)
            and self.view_id == other.view_id
            and self.members == other.members
        )

    def __hash__(self):
        return hash(("DaemonView", self.view_id, self.members))

    def __repr__(self):
        return "DaemonView({}, members={})".format(self.view_id, list(self.members))

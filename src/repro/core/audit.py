"""Coverage auditor: checks the paper's correctness properties.

Property 1 (§3.1): every VIP is covered *exactly once* by a server in
each maximal connected component whose servers are in the RUN state.
The auditor computes the real connected components from the simulated
network (host liveness, NIC state, LAN partition groups) and inspects
actual NIC bindings — ground truth, not protocol state — so a protocol
bug cannot hide from it. :class:`CoverageEngine` runs the view-relative
audit at every change and keeps what it finds as exact intervals.
"""

from collections import Counter

from repro.core.state import RUN
from repro.net.addresses import IPAddress

#: Why a violation inside a complete RUN view is not a Property 1
#: failure, by the name its interval carries. Nothing else excuses one.
QUALIFIERS = {
    "physically_stale": "a member is dark or cut off but holds the view for one "
    "detection window; a BALANCE it fires is delivered only locally (§4.2)",
    "stale_singleton": "a singleton that hears outsiders awaits a merge; the ARP "
    "conflict repair handing its addresses back first is the repair working",
    "application_point": "Change_IPs applies on delivery, at different instants "
    "per member: members that applied different counts of the view's Wackamole "
    "messages (WackamoleDaemon.applied) are mid-hand-off, however long loss makes it",
    "maturity_pending": "no applied message of the view says a member is mature; "
    "an immature view covers nothing by design (§3.4)",
    "grace": "gray/corrupt trials: shorter than one ARP repair, audit tick or regather",
}


def slot_table(pairs):
    """A pool as the judge reads it, from ``(slot, addresses)`` pairs:
    ``({slot: address values}, {address value: slot})``."""
    values = {slot: tuple(IPAddress(a)._value for a in addresses) for slot, addresses in pairs}
    return values, {value: slot for slot, group in values.items() for value in group}


class CoverageViolation:
    """One detected violation of Property 1.

    ``view`` is the view id it was found in (None outside a view) and
    ``excuse`` the :data:`QUALIFIERS` name excusing it, if any. One kept
    by a :class:`CoverageEngine` held from ``start`` until ``end``.
    """

    __slots__ = ("component", "slot", "covering", "kind", "view", "excuse", "start", "end")

    def __init__(self, component, slot, covering, kind, view=None, excuse=None):
        self.component = tuple(component)
        self.slot = slot
        self.covering = tuple(covering)
        self.kind = kind
        self.view = view
        self.excuse = excuse
        self.start = self.end = None

    @property
    def length(self):
        return self.end - self.start

    def to_dict(self):
        view = None if self.view is None else str(self.view)
        return dict(view=view, slot=self.slot, kind=self.kind, covering=list(self.covering),
                    excuse=self.excuse, start=round(self.start, 6), end=round(self.end, 6))

    def __repr__(self):
        return "CoverageViolation({} slot={} covered_by={})".format(
            self.kind, self.slot, list(self.covering)
        )


class CoverageAuditor:
    """Audits Property 1 over either stack's members: Wackamole daemons, or a
    scale cell's :class:`~repro.apps.scalecluster.ScaleVipManager` objects.
    A member answers ``host``, ``alive``, ``lan``, ``state``, ``mature``,
    ``maturity_agreed``, ``applied``, ``member_name``, ``view`` (``view_id``,
    ``members``) and ``slot_table`` (:func:`slot_table`, one per pool). Who
    holds a slot comes from the NIC bindings alone."""

    def __init__(self, daemons):
        self.daemons = list(daemons)

    def components(self):
        """Maximal sets of live members able to communicate right now.

        Fully deterministic: discovery proceeds in host-name order, so
        the component list (and therefore violation ordering) is a
        pure function of cluster state — required for repro.check's
        byte-identical replay across processes.
        """
        remaining = sorted(filter(self._communicating, self.daemons), key=lambda d: d.host.name)
        components = []
        while remaining:
            component = [remaining.pop(0)]
            frontier = list(component)
            while frontier:
                current = frontier.pop()
                for other in list(remaining):
                    if self._connected(current, other):
                        remaining.remove(other)
                        component.append(other)
                        frontier.append(other)
            components.append(sorted(component, key=lambda d: d.host.name))
        return components

    def check(self):
        """Return all Property 1 violations across stable components.

        A component is audited when every member is in the RUN state
        and at least one member is mature (the property presumes
        normal operation; an immature booting cluster covers nothing
        by design, §3.4). Only up interfaces hold a slot here.
        """
        violations = []
        for component in self.components():
            if not all(d.state == RUN for d in component):
                continue
            if not any(d.mature for d in component):
                continue
            held = {d: self._held(d, up_only=True) for d in component}
            names = [d.host.name for d in component]
            violations.extend(CoverageViolation(names, slot, covering, kind)
                              for slot, covering, kind in self._judge(component, held))
        return violations

    def assert_ok(self):
        """Raise AssertionError with details on any violation."""
        violations = self.check()
        if violations:
            raise AssertionError("coverage violations: {}".format(violations))

    def check_by_view(self):
        """Property 1 relative to agreed membership now: what :meth:`audit` finds unexcused."""
        return [v for v in self.audit()[0] if v.excuse is None]

    def audit(self):
        """One reading of the pool: ``(violations, slots, covered, duplicated, run)``.

        ``violations`` lists every slot of a complete RUN view — one
        whose live, mature holders are exactly its members — not held
        exactly once among them, each tagged with the :data:`QUALIFIERS`
        name that excuses it (``None``: nothing does). The rest is
        :meth:`counts` and the live members in RUN.
        """
        held = self._bindings()
        by_view, run = {}, 0
        for daemon in held:
            if daemon.state != RUN:
                continue
            run += 1
            view = daemon.view
            if view is not None and daemon.mature:
                by_view.setdefault((view.view_id, view.members), []).append(daemon)
        violations = []
        # Sorted so violation order is a pure function of cluster state,
        # not of the (arrival-ordered) grouping dict above.
        for key in sorted(by_view):
            (view_id, members), daemons = key, by_view[key]
            if {d.member_name for d in daemons} != set(members):
                continue
            found = self._judge(daemons, held)
            if found:
                names = [d.host.name for d in daemons]
                excuse = self._excuse(daemons)
                violations.extend(
                    CoverageViolation(names, slot, covering, kind, view_id, excuse)
                    for slot, covering, kind in found
                )
        return (violations, *self.counts(held), run)

    def counts(self, held=None):
        """Pool-wide ``(slots, covered, duplicated)``: slots configured, and slots
        held by at least one (more than one) live member whose interface is up."""
        held = self._bindings() if held is None else held
        owners = Counter(slot for daemon, slots in held.items()
                         if self._communicating(daemon) for slot in slots)
        duplicated = sum(1 for count in owners.values() if count > 1)
        return len(self._slots(self.daemons)), len(owners), duplicated

    def _bindings(self):
        """``{live member: the slots it holds}``, in member order."""
        return {d: self._held(d) for d in self.daemons if d.alive and d.host.alive}

    def _judge(self, daemons, held):
        """``(slot, covering host names, kind)`` per slot of ``daemons`` not held exactly once."""
        owners = {}
        for daemon in daemons:
            for slot in held[daemon]:
                owners.setdefault(slot, []).append(daemon.host.name)
        return [
            (slot, owners.get(slot, []), "duplicate" if slot in owners else "uncovered")
            for slot in self._slots(daemons)
            if len(owners.get(slot, ())) != 1
        ]

    def _excuse(self, daemons):
        """The first :data:`QUALIFIERS` name that holds for this view, or None."""
        if not all(self._communicating(d) for d in daemons) or any(
            not self._connected(daemons[0], other) for other in daemons[1:]
        ):
            return "physically_stale"
        if len(daemons) == 1 and self._sees_outsiders(daemons[0]):
            return "stale_singleton"
        if len({d.applied for d in daemons}) > 1:
            return "application_point"
        if not all(d.maturity_agreed for d in daemons):
            return "maturity_pending"
        return None

    # ------------------------------------------------------------------

    def _sees_outsiders(self, daemon):
        """Can this member *receive* from a member outside its view?

        One-way on purpose: under nested asymmetric blocks a singleton
        may hear a peer it cannot answer, and what it hears drives the
        ARP conflict repair that hands its addresses back.
        """
        members = daemon.view.members
        for other in self.daemons:
            if other is daemon or not self._communicating(other):
                continue
            if other.member_name in members:
                continue
            if self._connected(other, daemon, one_way=True):
                return True
        return False

    @staticmethod
    def _communicating(daemon):
        host = daemon.host
        if not host.alive or not daemon.alive:
            return False
        nic = host.nic_on(daemon.lan)
        return nic is not None and nic.up

    @staticmethod
    def _connected(daemon_a, daemon_b, one_way=False):
        """Frames flow both ways between the two (``one_way``: from a to b)."""
        lan = daemon_a.lan
        if daemon_b.lan is not lan:
            return False
        test = lan.reaches if one_way else lan.connected
        return test(daemon_a.host.nic_on(lan), daemon_b.host.nic_on(lan))

    @staticmethod
    def _slots(daemons):
        """``{slot: address values}`` of every member's pool, in first-seen order."""
        slots, table = {}, None
        for daemon in daemons:
            if daemon.slot_table is not table:
                table = daemon.slot_table
                slots.update(table[0])
        return slots

    @staticmethod
    def _held(daemon, up_only=False):
        """The slots whose every address is bound on the member's host.

        Bindings are ground truth, so a protocol bug cannot hide from
        them. A member that bound an address on a dark interface still
        *holds* it as far as the protocol's obligations go; ``up_only``
        (the physical :meth:`check`) counts up interfaces only. A host's
        LANs have distinct subnets, so one address binds on one NIC.
        """
        values, slot_of = daemon.slot_table
        found = [slot_of[value] for nic in daemon.host.nics if nic.up or not up_only
                 for value in nic.bound_values if value in slot_of]
        return [slot for slot in dict.fromkeys(found) if found.count(slot) == len(values[slot])]


class _FailureKnown(Exception):
    """Ends :meth:`CoverageEngine.run` at the instant a failure is known."""


def _stop():
    raise _FailureKnown


class CoverageEngine:
    """Property 1 audited at every change, kept as exact intervals.

    Constructing one attaches it as ``sim.coverage``; every change that
    can move coverage (a bind, an interface or process going up or down,
    a LAN cut, a daemon's view, maturity or applied message) first calls
    :meth:`touch`. The first touch at a later instant audits the state
    the previous changed instant left — it held until now — so intervals
    are exact and a same-instant hand-off is none. Only :meth:`run` ever
    schedules: a plain run fires the same events with or without an engine.

    ``audit`` is a :meth:`CoverageAuditor.audit`, of either stack.
    Unexcused intervals shorter than ``grace`` are excused as ``grace``.
    The counts feed ``core.vips_covered`` / ``core.vips_duplicated`` /
    ``core.daemons_run`` as they change; ``core.coverage_gap_s`` sums
    the seconds with a slot held by no one.
    """

    def __init__(self, sim, audit, grace=0.0):
        self.sim = sim
        self.audit = audit
        self.grace = float(grace)
        self.intervals = []
        self.readings = []  # (time, covered, duplicated, run) at each change
        self.coverage_gap_s = 0.0
        self._open = {}
        self._pending = sim.now
        self._gap_since = None
        self._stopping = False
        self._wake = None  # while run may stop: an audit one grace after a touch
        metrics = sim.metrics
        self._series = [
            metrics.timeseries(name, node="cluster")
            for name in ("core.vips_covered", "core.vips_duplicated", "core.daemons_run")
        ]
        self._m_gap = metrics.gauge("core.coverage_gap_s", node="cluster")
        sim.coverage = self

    def touch(self):
        """Something that can move coverage is about to change now."""
        now = self.sim.now
        if now != self._pending:
            self._record(self._pending)
            self._pending = now
            # Failure known: an unexcused interval held ``grace`` (a shorter one is excused).
            if self._stopping and any(
                v.excuse is None and now - v.start >= self.grace - 1e-9
                for v in self._open.values()
            ):
                self._stopping = False
                self.sim.at(now, _stop)
            elif self._stopping and self.grace:
                if not (self._wake and self.sim.scheduler.defer(self._wake, now + self.grace)):
                    self._wake = self.sim.at(now + self.grace, self._woken)

    def _woken(self):
        self.touch()  # a grace without a change: audit as a change would
        if not self._stopping:  # the failure is known with no traced change
            self.sim.trace.emit("coverage", "engine", "failure_known", grace=self.grace)

    def run(self, duration):
        """Advance ``duration`` seconds, but stop once a failure is known, at a change or a
        grace without one, so the clock and the trace end there; :meth:`finish`."""
        self._stopping = True
        try:
            self.sim.run_for(duration)
        except _FailureKnown:
            pass
        if self._wake:
            self._wake.cancel()
        return self.finish()

    def finish(self):
        """Audit the last changed instant, close every interval, detach."""
        self._record(self._pending)
        self._record(self.sim.now, closing=True)
        self._m_gap.set(round(self.coverage_gap_s, 9))
        self.finished_at = self.sim.now
        self.sim.coverage = None
        return self

    def _record(self, at, closing=False):
        """Take a reading as of ``at``; ``closing`` ends every interval instead."""
        violations, full = (), True
        if not closing:
            violations, slots, *reading = self.audit()
            full = reading[0] >= slots
            if not self.readings or self.readings[-1][1:] != tuple(reading):
                self.readings.append((at, *reading))
                for series, value in zip(self._series, reading):
                    series.observe(value, at)
        if full and self._gap_since is not None:
            self.coverage_gap_s += at - self._gap_since
            self._gap_since = None
        elif not full and self._gap_since is None:
            self._gap_since = at
        current = {(v.view, v.slot, v.kind, v.excuse): v for v in violations}
        for key in [key for key in self._open if key not in current]:
            violation = self._open.pop(key)
            violation.end = at
            if violation.excuse is None and violation.length < self.grace - 1e-9:
                violation.excuse = "grace"
            self.intervals.append(violation)
        for key, violation in current.items():
            if key not in self._open:
                violation.start = at
                self._open[key] = violation

    # ------------------------------------------------------------------
    # what the intervals say (after finish)

    def _where(self, test):
        chosen = [v for v in self.intervals if test(v)]
        return sorted(chosen, key=lambda v: (v.start, repr(v)))

    def failures(self):
        """Intervals nothing excuses, in start order."""
        return self._where(lambda v: v.excuse is None)

    def summary(self):
        """JSON-stable digest: gap seconds, hand-offs (uncovered intervals
        excused as ``application_point``), excuse counts, failures."""
        excused = Counter(v.excuse for v in self.intervals if v.excuse is not None)
        handoffs = self._where(lambda v: v.kind == "uncovered" and v.excuse == "application_point")
        return {
            "coverage_gap_s": round(self.coverage_gap_s, 6),
            "max_handoff_gap_s": round(max((v.length for v in handoffs), default=0.0), 6),
            "handoffs": [v.to_dict() for v in handoffs],
            "excused": dict(sorted(excused.items())),
            "failures": [v.to_dict() for v in self.failures()],
        }

    def series(self, name):
        """``[(time, value)]`` of ``covered``, ``duplicated`` or ``run`` as a step:
        each change repeats the value it ends, and the last holds to finish."""
        column = ("covered", "duplicated", "run").index(name) + 1
        ends = [reading[0] for reading in self.readings[1:]] + [self.finished_at]
        return [(at, reading[column]) for reading, end in zip(self.readings, ends)
                for at in (reading[0], end)]

    def coverage_dip(self):
        """``(start, end, depth)`` of the first drop below the best coverage seen,
        or None; ``end`` is the return (or finish), ``depth`` the most slots lost."""
        full = max((reading[1] for reading in self.readings), default=0)
        start, depth = None, 0
        for at, covered, _duplicated, _run in self.readings:
            if covered < full:
                start = at if start is None else start
                depth = max(depth, full - covered)
            elif start is not None:
                return (start, at, depth)
        return None if start is None else (start, self.finished_at, depth)

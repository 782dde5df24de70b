"""Fault spans: how long an injected fault stayed in force.

Fail-stop faults produce :mod:`repro.obs.episodes` — the cluster's
*reaction*. Gray and corruption faults additionally have a *window*
that opens at the injector's onset record and closes at the first later
record that ends it. One pairing fold (:class:`SpanFold`) stitches
both families out of the trace, each described by a rule table — the
onset events that open a span, and the (record pattern → ``end_cause``)
rules that close one:

* **degraded spans** — the exposure window of a gray fault: the
  interval during which a link was bursty, a host slow, a clock skewed,
  a direction blocked, or a daemon wedged. A span closes on its own
  healing record (the undo naming the same fault), on a host crash (for
  host-scoped faults — the reboot resets a slowdown, and a wedged daemon
  dies with its host), or on the supervisor restart that replaced it.

* **stabilization spans** — time-to-stabilize of a state corruption
  (``docs/FAULTS.md``, "State corruption"), which has no healing action
  of its own: the cluster is expected to *notice* the corrupted state
  through its periodic audits. A span closes on the first
  ``stabilize/repair`` record emitted by the corrupted process; for a
  VIP-table ``drop`` or ``duplicate``, the repair of its own slot. The
  audit is not the only repair path: a corrupted view, counter or
  epoch is also rewritten wholesale when the daemon installs a fresh
  view — a dropped member's own heartbeats trigger a gather through
  ``on_foreign_traffic`` before any audit tick fires — so those spans
  also close on the daemon's next ``membership/install`` record
  (``end_cause="view_change"``). Likewise a ``drop`` or ``duplicate``
  of a VIP binding closes on the daemon's next ``wackamole/run``
  (``"reallocation"``): the daemon enters RUN only after it has made
  every binding match its agreed table, which is the audit's repair for
  every slot at once, whichever member the new table names. A
  supervisor restart replaces the daemon, corrupted state and all
  (``"supervisor_restart"``), and a host crash does the same the hard
  way (``"crash"``).

Spans can legitimately stay open (``end=None``): the trace ended
first; a ``poison_arp`` mutation is repaired on the *client* side by
the owner's periodic gratuitous re-announcement, which emits no
stabilization record, so no audit repair closes it. A ``noop`` mutation found nothing to corrupt and
opens no span at all.

Like episode extraction this is a pure function of the trace, so the
span lists ride along in check artifacts and must replay
byte-identically (``repro check --replay`` compares them).
"""

from repro.sim.trace import TraceFold


def _round(value):
    """Stable rounding for serialised times/durations (ns resolution)."""
    return None if value is None else round(value, 9)


class Span:
    """One fault window: opened by an onset record, closed by a later one.

    Subclasses name their extra fields: onset fields are fixed when the
    span opens (``ONSET`` ones serialise after ``target``); ``CLOSING``
    fields are read off the closing record's details, serialised last.
    """

    __slots__ = ("kind", "target", "start", "end", "end_cause")
    ONSET = ()
    CLOSING = ()

    def __init__(self, kind, target, start, **onset):
        self.kind = kind
        self.target = target
        self.start = start
        self.end = None
        self.end_cause = None
        for name, value in onset.items():
            setattr(self, name, value)
        for name in self.CLOSING:
            setattr(self, name, None)

    @property
    def duration(self):
        return None if self.end is None else self.end - self.start

    def close(self, time, cause, details):
        """End the span; ``details`` are the closing record's."""
        self.end = time
        self.end_cause = cause
        for name in self.CLOSING:
            setattr(self, name, details.get(name))

    def to_dict(self):
        out = {"kind": self.kind, "target": self.target}
        for name in self.ONSET:
            out[name] = getattr(self, name)
        out["start"] = _round(self.start)
        out["end"] = _round(self.end)
        out["duration"] = _round(self.duration)
        out["end_cause"] = self.end_cause
        for name in self.CLOSING:
            out[name] = getattr(self, name)
        return out

    def __repr__(self):
        return "{}({}, {}, {:.4f}..{})".format(
            type(self).__name__,
            self.kind,
            self.target,
            self.start,
            "open" if self.end is None else "{:.4f}".format(self.end),
        )


class DegradedSpan(Span):
    """One gray-fault exposure window; ``fault`` names a composing fault."""

    __slots__ = ("param", "fault")
    ONSET = ("param",)


class StabilizationSpan(Span):
    """One corruption's detect-and-repair window (``slot``: a VIP-table one's)."""

    __slots__ = ("mutation", "slot", "invariant")
    ONSET = ("mutation",)
    CLOSING = ("invariant",)


class SpanFold(TraceFold):
    """The pairing loop over one rule table, a fold of the trace.

    A subclass's table says what opens a span and what closes one:
    ``OPEN`` names the injector events that can open one, and
    :meth:`onset` maps such a record to the span's ``ONSET`` fields, or
    to None when it opens nothing. ``CLOSE`` rows are ``(category,
    event, end_cause, matches)``: such a record closes every open span
    for which ``matches(span, record)``; ``end_cause=None`` means the
    closing event's own name. Spans open on injector fault records
    only, and ``fault`` close rows likewise see injector records only.
    Spans still open when the trace ends keep ``end=None``.
    """

    SPAN = Span
    OPEN = ()
    CLOSE = ()

    def __init_subclass__(cls):
        opening = [("fault", event) for event in cls.OPEN]
        cls.KEYS = frozenset(opening + [row[:2] for row in cls.CLOSE])

    def __init__(self):
        self.spans = []
        self._open = []

    def as_dicts(self):
        """The spans serialised, in onset order — the replayable artifact form."""
        return [span.to_dict() for span in self.spans]

    def feed(self, record):
        category = record.category
        if category == "fault":
            if record.source != "injector":
                return
            if record.event in self.OPEN:
                onset = self.onset(record)
                if onset is not None:
                    span = self.SPAN(
                        record.event, record.details.get("target"), record.time, **onset
                    )
                    self.spans.append(span)
                    self._open.append(span)
                return
        for rule_category, event, cause, matches in self.CLOSE:
            if (category, record.event) != (rule_category, event):
                continue
            for span in [span for span in self._open if matches(span, record)]:
                span.close(record.time, cause or record.event, record.details)
                self._open.remove(span)


# ----------------------------------------------------------------------
# the rule tables


def _host_of(name):
    """The host part of a daemon name ("spread@s2-r1" -> "s2")."""
    return name.split("@", 1)[-1].split("-", 1)[0]


def _daemon_replaced(span, record):
    return span.target == "spread@{}".format(record.details.get("old"))


#: gray onset event -> the injector event that ends the span.
_HEAL_OF = {
    "asym_partition": "asym_heal",
    "burst_loss_on": "burst_loss_off",
    "slow_host": "unslow_host",
    "clock_skew": "clock_unskew",
    "daemon_wedge": "daemon_unwedge",
}


def _healed(span, record):
    key = "target" if span.fault is None else "fault"  # a daemon wedge has no serial
    return _HEAL_OF[span.kind] == record.event and getattr(span, key) == record.details.get(key)


def _degraded_host_died(span, record):
    # A crash ends every host-scoped degradation (slowdown dies with
    # the software; the wedged daemon dies too).
    target = record.details.get("target")
    if span.kind == "slow_host":
        return span.target == target
    return span.kind == "daemon_wedge" and _host_of(span.target) == target


class DegradedFold(SpanFold):
    """The gray-fault exposure windows (:class:`DegradedSpan`)."""

    SPAN = DegradedSpan
    OPEN = _HEAL_OF
    CLOSE = tuple(("fault", heal, None, _healed) for heal in _HEAL_OF.values()) + (
        ("fault", "crash", "crash", _degraded_host_died),
        ("supervisor", "restart_spread", "supervisor_restart", _daemon_replaced),
    )

    @staticmethod
    def onset(record):
        return {key: record.details.get(key) for key in ("param", "fault")}


CORRUPTION_EVENTS = (
    "corrupt_vip_table",
    "corrupt_membership",
    "corrupt_sequence",
    "corrupt_epoch",
)

#: Corruptions of GCS state that a fresh view install rewrites wholesale.
_VIEW_SCOPED = ("corrupt_membership", "corrupt_sequence", "corrupt_epoch")


def _repaired(span, record):
    # A binding repair names its slot: it answers the drop or duplicate
    # of that slot, and never a poisoned client cache.
    if span.target != record.source:
        return False
    return span.kind != "corrupt_vip_table" or (
        span.mutation != "poison_arp" and span.slot == record.details.get("slot")
    )


class StabilizationFold(SpanFold):
    """The corruption repair windows (:class:`StabilizationSpan`)."""

    SPAN = StabilizationSpan
    OPEN = CORRUPTION_EVENTS
    CLOSE = (
        ("fault", "crash", "crash",
         lambda span, record: _host_of(span.target) == record.details.get("target")),
        ("stabilize", "repair", "repair", _repaired),
        ("membership", "install", "view_change",
         lambda span, record: span.kind in _VIEW_SCOPED and span.target == record.source),
        ("wackamole", "run", "reallocation",
         lambda span, record: span.kind == "corrupt_vip_table"
         and span.mutation != "poison_arp" and span.target == record.source),
        ("supervisor", "restart_spread", "supervisor_restart", _daemon_replaced),
    )

    @staticmethod
    def onset(record):
        param = record.details.get("param") or {}
        mutation = param.get("mutation")
        return None if mutation == "noop" else {"mutation": mutation, "slot": param.get("slot")}


def degraded_spans(records):
    """The trace's gray-fault exposure windows (:class:`DegradedSpan`)."""
    return DegradedFold.over(records).spans


def degraded_spans_as_dicts(records):
    """``degraded_spans`` serialised — the replayable artifact form."""
    return DegradedFold.over(records).as_dicts()


def stabilization_spans(records):
    """The trace's corruption repair windows (:class:`StabilizationSpan`)."""
    return StabilizationFold.over(records).spans


def stabilization_spans_as_dicts(records):
    """``stabilization_spans`` serialised — the replayable artifact form."""
    return StabilizationFold.over(records).as_dicts()

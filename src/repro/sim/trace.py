"""Structured trace log for simulation runs.

Protocols append records instead of printing; tests and the experiment
harness query the log to reconstruct timelines (e.g. "when did daemon 3
install view 7", "when did the client first hear from the new owner").
Readers that need the whole run (fail-over episodes, fault spans) are
:class:`TraceFold` s fed as records are written, so a run can keep a
bounded window (:data:`TRACE_WINDOW`) of the records themselves.
"""

from collections import deque

from repro.obs.metrics import MetricsRegistry

#: The default retained window of a faithful scenario or a check trial.
TRACE_WINDOW = 4096


def trace_window(capacity):
    """``capacity`` if it is None or a positive integer, else ValueError."""
    if capacity is None or (type(capacity) is int and capacity > 0):
        return capacity
    raise ValueError(
        "trace_capacity must be None or a positive integer, not {!r}".format(capacity)
    )


class TraceRecord:
    """One trace entry: time, category, source component, event, details."""

    __slots__ = ("time", "category", "source", "event", "details")

    def __init__(self, time, category, source, event, details):
        self.time = time
        self.category = category
        self.source = source
        self.event = event
        self.details = details

    def __repr__(self):
        return "[{:10.4f}] {:<10} {:<18} {} {}".format(
            self.time, self.category, self.source, self.event, self.details or ""
        )


class TraceFold:
    """A reducer over the trace, fed one record at a time in log order.

    ``KEYS`` names the ``(category, event)`` pairs :meth:`feed` reads;
    no other record reaches it, live (:meth:`TraceLog.fold`) or offline
    (:meth:`over`), so both forms are one computation.
    """

    KEYS = frozenset()

    @classmethod
    def over(cls, records):
        """A fresh fold fed every record of ``records`` it reads."""
        fold = cls()
        for record in records:
            if (record.category, record.event) in cls.KEYS:
                fold.feed(record)
        return fold


class TraceLog:
    """Append-only event log with simple filtering helpers.

    Four bounded-resource behaviours are intended semantics (tests pin
    them):

    * ``capacity`` — when set (a positive integer), only the most
      recent ``capacity`` records are retained, oldest trimmed first,
      and ``metrics`` counts the trimmed ones as ``sim.trace_dropped``
      (the counter appears at the first drop). Per-(category, event)
      counters keep counting every emit, so :meth:`count` reports
      whole-run totals. It is fixed at construction.
    * :meth:`fold` — attached folds see every stored record they read,
      trimmed or not.
    * ``enabled=False`` — records are dropped entirely (``emit``
      returns None) but the counters still increment.
    * ``categories`` — when set (an iterable of category names), only
      records in those categories are stored; everything else is
      dropped after counting, exactly like the disabled path.
    """

    def __init__(self, clock=None, enabled=True, capacity=None, categories=None, metrics=None):
        self._clock = clock
        self.enabled = enabled
        self._metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self._records = deque(maxlen=trace_window(capacity))
        self._drops = None  # the sim.trace_dropped counter, made at the first drop
        self._counts = {}
        self._folds = {}
        self._feeds = {}  # (category, event) -> feed methods of the folds reading it
        # The category filter (frozenset), or None when unfiltered.
        self.categories = frozenset(categories) if categories is not None else None

    @property
    def capacity(self):
        """The retained window's length; None keeps the whole trace."""
        return self._records.maxlen

    @property
    def records(self):
        """The retained records, oldest first."""
        return list(self._records)

    def fold(self, cls):
        """This log's one ``cls`` fold, attached at the first call.

        It starts as ``cls.over(records)`` — the whole trace, while
        nothing has been trimmed yet — and ``emit`` feeds it from then on.
        """
        fold = self._folds.get(cls)
        if fold is None:
            fold = self._folds[cls] = cls.over(self._records)
            for key in cls.KEYS:
                self._feeds.setdefault(key, []).append(fold.feed)
        return fold

    def emit(self, category, source, event, **details):
        """Record one event; drops silently when tracing is disabled."""
        key = (category, event)
        counts = self._counts
        counts[key] = counts.get(key, 0) + 1
        if not self.enabled:
            return None
        categories = self.categories
        if categories is not None and category not in categories:
            return None
        clock = self._clock
        record = TraceRecord(
            clock() if clock is not None else 0.0, category, source, event, details
        )
        records = self._records
        if len(records) == records.maxlen:
            if self._drops is None:
                self._drops = self._metrics.counter("sim.trace_dropped", node="trace")
            self._drops.inc()
        records.append(record)
        feeds = self._feeds.get(key)
        if feeds is not None:
            for feed in feeds:
                feed(record)
        return record

    def count(self, category, event=None):
        """Number of emits for a category (optionally a specific event)."""
        if event is not None:
            return self._counts.get((category, event), 0)
        return sum(n for (cat, _), n in self._counts.items() if cat == category)

    def select(self, category=None, source=None, event=None, since=None):
        """Return records matching all supplied filters, in time order."""
        return [
            record
            for record in self._records
            if (category is None or record.category == category)
            and (source is None or record.source == source)
            and (event is None or record.event == event)
            and (since is None or record.time >= since)
        ]

    def tail(self, n):
        """The most recent ``n`` records, oldest first."""
        return list(self._records)[-n:] if n > 0 else []

    def last(self, category=None, source=None, event=None):
        """Most recent matching record, or None."""
        matches = self.select(category=category, source=source, event=event)
        return matches[-1] if matches else None

    def clear(self):
        """Drop all records and counters."""
        self._records.clear()
        self._counts.clear()

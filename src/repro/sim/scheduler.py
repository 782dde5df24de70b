"""The discrete-event scheduler.

A binary-heap event queue over (time, sequence) keys. The sequence
number makes execution order deterministic for events scheduled at the
same simulated instant: they run in scheduling order (FIFO), which is
what message-passing protocols expect.

Cancellation is lazy: a cancelled event keeps its heap entry, a
*corpse*, until the entry surfaces, when the run loop drops it and marks
the event dead (``callback = None``). Until then :meth:`Scheduler.defer`
may revive it; once dead, :meth:`Scheduler.reschedule` may reuse it. A
:class:`~repro.sim.timers.Timer` therefore owns one event for life, and
a reconfiguration that cancels every suspicion timer and re-arms it
builds no event and leaves no corpse behind. A corpse that is never
revived waits in the heap for its deadline.

Postponement rewrites the event alone: :meth:`Scheduler.defer` moves a
queued event to a later key, and its heap entry keeps the old, smaller
key — *stale*, recognisable because the entry's ``seq`` is no longer
the event's — and is re-filed under the event's current key when it
surfaces. A timeout refreshed per message received (the GCS failure
detector) therefore costs no allocation, no heap operation and no corpse
per refresh, and every event keeps exactly one heap entry.

Heap entries are ``(time, seq, event)`` tuples rather than bare events:
seq is unique, so sift comparisons are decided by the first two fields
and run entirely as C tuple comparisons instead of calling back into
``Event.__lt__`` — the single hottest call in timer-churn profiles.
"""

import heapq

from repro.sim.errors import SchedulerError
from repro.sim.events import Event


class Scheduler:
    """Priority queue of timed callbacks driving simulated time forward."""

    def __init__(self, start_time=0.0):
        self._now = float(start_time)
        self._seq = 0
        self._heap = []
        self._cancelled = 0  # corpses currently in the heap
        self._running = False
        self._events_fired = 0
        self._m_events = None
        self._m_depth = None

    def bind_metrics(self, registry):
        """Attach event-loop instruments (fired count, queue depth).

        Left unbound — e.g. when the owning Simulation disables metrics
        — the run loop pays a single ``is None`` test per event. The
        queue-depth series reports *live* (non-cancelled) depth and is
        sampled every 64th event (plus once per ``run`` call) to keep
        the per-event cost to a comparison.
        """
        self._m_events = registry.counter("sim.events_fired", node="scheduler")
        self._m_depth = registry.timeseries("sim.queue_depth", node="scheduler")

    @property
    def now(self):
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_count(self):
        """Number of live (non-cancelled) events still in the queue.

        Corpses are excluded, so this is the real backlog a ``run``
        call would execute.
        """
        return len(self._heap) - self._cancelled

    @property
    def events_fired(self):
        """Total number of callbacks executed so far."""
        return self._events_fired

    def at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SchedulerError(
                "cannot schedule at {:.6f}, now is {:.6f}".format(time, self._now)
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(float(time), seq, callback, args, self)
        heapq.heappush(self._heap, (event.time, seq, event))
        return event

    def after(self, delay, callback, *args):
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SchedulerError("negative delay: {}".format(delay))
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def reschedule(self, event, delay, callback, *args):
        """Re-arm a dead event object ``delay`` seconds from now.

        Allocation-free fast path for repeating and restartable timers:
        the returned handle is ``event`` itself, re-keyed with a fresh
        sequence number, so execution order is identical to scheduling
        a brand-new event. Only a dead event — fired, or a corpse the
        run loop has popped — may be reused: a queued one, cancelled or
        not, still has its heap entry, and reusing it would corrupt the
        queue (:meth:`defer` revives a queued one).
        """
        if delay < 0:
            raise SchedulerError("negative delay: {}".format(delay))
        if event.callback is not None:
            raise SchedulerError(
                "cannot reschedule an event still in the queue: {!r}".format(event)
            )
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.owner = self
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def defer(self, event, time):
        """Postpone a queued event to the absolute simulated ``time``.

        Returns true when ``event`` now fires at ``time``, reviving it
        if it was cancelled; false, having changed nothing, when it is
        dead or when the new deadline is *earlier* than its current one
        (the caller cancels and schedules afresh). A deferred event
        takes the time and the fresh sequence number its replacement
        would have been given by cancel-and-reschedule, so it fires
        exactly where the replacement would and every other event's
        ``seq`` is unchanged. The heap is not touched: the entry is left
        under its old key, which can only be smaller, and the run loop
        re-files it when it reaches the top.
        """
        if event.callback is None or time < event.time:
            return False
        if event.cancelled:
            event.cancelled = False
            self._cancelled -= 1
        event.time = time
        event.seq = self._seq
        self._seq += 1
        return True

    def run(self, until=None, max_events=None):
        """Execute events in order.

        Stops when the queue drains, when simulated time would pass
        ``until`` (in both cases the clock is then advanced exactly to
        ``until``; an event exactly at ``until`` fires), or after
        ``max_events`` callbacks with a live event still due by
        ``until`` (the clock then stays at the last fired event, so the
        next run never moves it backwards). Returns the number of
        callbacks executed during this call.
        """
        if self._running:
            raise SchedulerError("scheduler is already running (reentrant run call)")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        replace = heapq.heapreplace
        m_depth = self._m_depth
        base = self._events_fired
        fired = 0
        capped = False
        try:
            while heap:
                time, seq, event = heap[0]
                if event.cancelled:
                    # A corpse surfaced: it dies, so reschedule may reuse it.
                    pop(heap)
                    self._cancelled -= 1
                    event.callback = event.args = None
                    continue
                if seq != event.seq:
                    # Stale entry of a deferred event: like a corpse it
                    # neither fires nor moves the clock, but the event is
                    # live, so it is re-filed under its current key.
                    replace(heap, (event.time, event.seq, event))
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and fired >= max_events:
                    capped = True
                    break
                pop(heap)
                self._now = time
                event.fire()
                fired += 1
                if m_depth is not None and not (base + fired) & 63:
                    m_depth.observe(len(heap) - self._cancelled)
        finally:
            self._running = False
            self._events_fired = base + fired
            if fired and self._m_events is not None:
                self._m_events.inc(fired)
        if fired and m_depth is not None:
            m_depth.observe(len(heap) - self._cancelled)
        if until is not None and not capped and self._now < until:
            self._now = float(until)
        return fired

    def run_until_idle(self, max_events=10_000_000):
        """Run until no events remain; guard against runaway loops."""
        fired = self.run(max_events=max_events)
        if self.pending_count:
            raise SchedulerError(
                "run_until_idle exceeded max_events={} with events pending".format(max_events)
            )
        return fired

    def next_event_time(self):
        """Time of the next live event, or None if the queue is idle."""
        heap = self._heap
        while heap:
            time, seq, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                event.callback = event.args = None
            elif seq != event.seq:
                # A deferred event's stale entry names a time at which
                # nothing fires; resolve it to the event's real key.
                heapq.heapreplace(heap, (event.time, event.seq, event))
            else:
                return time
        return None

"""Cancellable one-shot and periodic timers built on the scheduler.

Protocol code (heartbeats, fault-detection timeouts, balance timers)
uses these instead of raw scheduler events so that restarting or
cancelling a timeout is a one-line operation.

A timer owns one event for life and re-arms it in every state. While
the event is queued — pending, or cancelled with its heap entry not yet
surfaced — a ``start`` postpones it in place (:meth:`Scheduler.defer`),
which touches neither the allocator nor the heap: the failure
detector's timeout, pushed back by every heartbeat heard and cancelled
and re-armed at every view change, is one event. Once the event is dead
— fired, or a corpse the run loop has popped — ``start`` reuses it
(:meth:`Scheduler.reschedule`). Only a ``start`` to an *earlier*
deadline than a queued event's cancels it and arms a new one. A
:class:`PeriodicTimer` is a timer whose firing re-arms it one interval
later.

A :class:`~repro.sim.process.Process`'s timer reads its ``owner``
directly: delays are stretched by ``owner.time_scale``, and a callback
is skipped once ``owner.alive`` is false.
"""

from types import SimpleNamespace

_UNOWNED = SimpleNamespace(alive=True, time_scale=1.0)  # no process owns the timer


class Timer:
    """A restartable one-shot timer.

    ``start`` (re)arms the timer; a second ``start`` supersedes the
    first deadline, which is how protocol timeouts are refreshed.

    ``owner``'s ``time_scale`` is sampled at each ``start``: a slowed
    host (gray-failure injection) stretches every local timeout.
    """

    def __init__(self, scheduler, callback, name="", owner=_UNOWNED):
        self._scheduler = scheduler
        self._callback = callback
        self._event = None
        self._owner = owner
        self.name = name

    @property
    def armed(self):
        """True when a deadline is currently pending."""
        return self._event is not None and self._event.pending

    @property
    def deadline(self):
        """Absolute time of the pending deadline, or None."""
        if not self.armed:
            return None
        return self._event.time

    def start(self, delay):
        """Arm (or re-arm) the timer to fire after ``delay`` seconds."""
        delay *= self._owner.time_scale
        scheduler = self._scheduler
        event = self._event
        if event is None:
            self._event = scheduler.after(delay, self._fire)
        elif event.callback is None:
            scheduler.reschedule(event, delay, self._fire)
        elif not scheduler.defer(event, scheduler._now + delay):
            event.cancel()
            self._event = scheduler.after(delay, self._fire)

    def cancel(self):
        """Disarm the timer if it is pending."""
        if self._event is not None:
            self._event.cancel()

    def rescaled(self):
        """The owner's ``time_scale`` changed: a started deadline keeps its scale."""

    def _fire(self):
        if self._owner.alive:
            self._callback()


class PeriodicTimer(Timer):
    """A repeating timer; fires every ``interval`` seconds until stopped.

    Its *grid*: tick ``k + 1`` is due at tick ``k`` plus ``interval`` times
    the ``time_scale`` read at tick ``k``."""

    def __init__(self, scheduler, callback, interval, name="", owner=_UNOWNED):
        if interval <= 0:
            raise ValueError("interval must be positive, got {}".format(interval))
        super().__init__(scheduler, callback, name=name, owner=owner)
        self.interval = float(interval)
        self._skipped = None  # (time skipped to, first tick skipped, step)

    running = Timer.armed

    def start(self, first_delay=None):
        """Begin ticking; first tick after ``first_delay`` (default: interval)."""
        self._skipped = None
        super().start(self.interval if first_delay is None else first_delay)

    def cancel(self):
        """Stop ticking; safe to call when not running."""
        self._skipped = None
        super().cancel()

    stop = cancel

    def skip_while(self, idle):
        """Move the pending tick past the ticks of its grid where ``idle(time)`` holds.

        For a callback that knows those ticks would do nothing: the
        leader-lease watch while the lease is fresh (DESIGN.md §8). The
        grid is walked with the additions the ticks themselves make, so
        the tick landed on is bit-identical to the one the timer would
        have reached.
        """
        event = self._event
        time = event.time
        if not idle(time):
            return
        step = self.interval * self._owner.time_scale
        skipped = time
        while idle(time):
            time += step
        self._scheduler.defer(event, time)
        self._skipped = (time, skipped, step)

    def rescaled(self):
        """The owner's ``time_scale`` changed: undo a skip made on the old scale.

        The skipped ticks were laid out on the old scale, and the first of
        them still due is the one the timer would have had pending: the
        tick goes back there, and its own firing lays out the new grid.
        """
        skipped, self._skipped = self._skipped, None
        if skipped is None or self._event.time != skipped[0]:
            return  # no skip, or the tick skipped to has fired since
        target, time, step = skipped
        now = self._scheduler.now
        while time < now:
            time += step
        if time != target:
            self._event.cancel()
            self._event = self._scheduler.at(time, self._fire)

    def _fire(self):
        # The event that just fired is dead: re-arm it for the next tick.
        owner = self._owner
        self._scheduler.reschedule(self._event, self.interval * owner.time_scale, self._fire)
        if owner.alive:
            self._callback()

"""Cancellable one-shot and periodic timers built on the scheduler.

Protocol code (heartbeats, fault-detection timeouts, balance timers)
uses these instead of raw scheduler events so that restarting or
cancelling a timeout is a one-line operation.

Neither timer class allocates in steady state. A periodic timer reuses
the event that just ticked for the next tick and a one-shot timer keeps
its last fired event as a spare for the next ``start``
(:meth:`Scheduler.reschedule`); a one-shot timer refreshed while still
pending — the failure detector's timeout, pushed back by every
heartbeat heard — postpones its pending event in place
(:meth:`Scheduler.defer`), which touches neither the allocator nor the
heap. Only a refresh to an *earlier* deadline cancels the pending event
(it stays lazily in the scheduler's heap, so it cannot be recycled) and
arms a new one.

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
        self._spare = None
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
        event = self._event
        if event is not None:
            if self._scheduler.defer(event, self._scheduler._now + delay):
                return
            event.cancel()
        spare = self._spare
        if spare is None:
            self._event = self._scheduler.after(delay, self._fire)
        else:
            self._spare = None
            self._event = self._scheduler.reschedule(spare, delay, self._fire)

    def cancel(self):
        """Disarm the timer if it is pending."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._spare = self._event
        self._event = None
        if self._owner.alive:
            self._callback()


class PeriodicTimer:
    """A repeating timer; fires every ``interval`` seconds until stopped.

    Its *grid*: tick ``k + 1`` is due at tick ``k`` plus ``interval`` times
    the ``time_scale`` read at tick ``k``."""

    def __init__(self, scheduler, callback, interval, name="", owner=_UNOWNED):
        if interval <= 0:
            raise ValueError("interval must be positive, got {}".format(interval))
        self._scheduler = scheduler
        self._callback = callback
        self.interval = float(interval)
        self._event = None
        self._owner = owner
        self._skipped = None  # (time skipped to, first tick skipped, step)
        self.name = name

    @property
    def running(self):
        """True while ticks are being scheduled."""
        return self._event is not None and self._event.pending

    def start(self, first_delay=None):
        """Begin ticking; first tick after ``first_delay`` (default: interval)."""
        self.stop()
        delay = self.interval if first_delay is None else first_delay
        self._event = self._scheduler.after(delay * self._owner.time_scale, self._tick)

    def stop(self):
        """Stop ticking; safe to call when not running."""
        self._skipped = None
        if self._event is not None:
            self._event.cancel()
            self._event = None

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
            self._event = self._scheduler.at(time, self._tick)

    def _tick(self):
        # The event that just fired is dead; recycle it for the next
        # tick instead of allocating one per interval.
        owner = self._owner
        self._event = self._scheduler.reschedule(
            self._event, self.interval * owner.time_scale, self._tick
        )
        if owner.alive:
            self._callback()

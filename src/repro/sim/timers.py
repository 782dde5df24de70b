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
"""


class Timer:
    """A restartable one-shot timer.

    ``start`` (re)arms the timer; a second ``start`` supersedes the
    first deadline, which is how protocol timeouts are refreshed.

    ``scale`` is an optional zero-argument callable returning a time
    multiplier sampled at each ``start``; a slowed host (gray-failure
    injection) stretches every local timeout through it. The default is
    no callable at all, so unscaled timers pay nothing.
    """

    def __init__(self, scheduler, callback, name="", scale=None):
        self._scheduler = scheduler
        self._callback = callback
        self._event = None
        self._spare = None
        self._scale = scale
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
        if self._scale is not None:
            delay *= self._scale()
        event = self._event
        if event is not None:
            if self._scheduler.defer(event, delay):
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
        self._callback()


class PeriodicTimer:
    """A repeating timer; fires every ``interval`` seconds until stopped."""

    def __init__(self, scheduler, callback, interval, name="", scale=None):
        if interval <= 0:
            raise ValueError("interval must be positive, got {}".format(interval))
        self._scheduler = scheduler
        self._callback = callback
        self.interval = float(interval)
        self._event = None
        self._scale = scale
        self.name = name

    @property
    def running(self):
        """True while ticks are being scheduled."""
        return self._event is not None and self._event.pending

    def start(self, first_delay=None):
        """Begin ticking; first tick after ``first_delay`` (default: interval)."""
        self.stop()
        delay = self.interval if first_delay is None else first_delay
        if self._scale is not None:
            delay *= self._scale()
        self._event = self._scheduler.after(delay, self._tick)

    def stop(self):
        """Stop ticking; safe to call when not running."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self):
        # The event that just fired is dead; recycle it for the next
        # tick instead of allocating one per interval.
        interval = self.interval
        if self._scale is not None:
            interval *= self._scale()
        self._event = self._scheduler.reschedule(self._event, interval, self._tick)
        self._callback()

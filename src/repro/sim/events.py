"""Scheduled events.

An :class:`Event` is the handle returned by the scheduler for every
scheduled callback. Holders can cancel it; a cancelled event keeps its
heap entry until the entry surfaces, and until then
``Scheduler.defer`` may revive it. An event is *dead* once it has fired
or its cancelled entry has been popped (``callback is None``), and
``Scheduler.reschedule`` may then reuse it.
"""


class Event:
    """A single scheduled callback, cancellable by its holder."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "owner")

    def __init__(self, time, seq, callback, args, owner=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.owner = owner

    def cancel(self):
        """Prevent the callback from running; safe to call repeatedly.

        Cancelling a queued event tells the owning scheduler, which
        counts the corpses in its heap for O(1) idle checks.
        """
        if not self.cancelled:
            self.cancelled = True
            if self.callback is not None and self.owner is not None:
                self.owner._cancelled += 1

    @property
    def pending(self):
        """True while the event has neither fired nor been cancelled."""
        return not self.cancelled and self.callback is not None

    def fire(self):
        """Run the callback once and release references to it."""
        if self.cancelled or self.callback is None:
            return
        callback, args = self.callback, self.args
        self.callback = None
        self.args = None
        callback(*args)

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending" if self.pending else "fired"
        return "Event(t={:.6f}, seq={}, {})".format(self.time, self.seq, state)

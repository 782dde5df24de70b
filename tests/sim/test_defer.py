"""``Scheduler.defer``: a refreshed timeout fires where its replacement would.

A queued event postponed in place — or revived after a cancel — takes
the ``(time, seq)`` key that cancel-and-reschedule would have given a
fresh event, and its heap entry — left under the old key — is re-filed
when it surfaces. The differential test runs random timer programs on
the real ``Timer`` and ``PeriodicTimer`` and on references that always
cancel and reschedule, and requires the two to be indistinguishable
after every step; the unit cases pin the edges. Counts and orders only,
no wall clock.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.scheduler import Scheduler
from repro.sim.timers import PeriodicTimer, Timer

N_TIMERS = 4


class CancelAndRescheduleTimer:
    """The reference: every ``start`` cancels and schedules a new event."""

    def __init__(self, scheduler, callback):
        self._scheduler = scheduler
        self._callback = callback
        self._event = None

    @property
    def armed(self):
        return self._event is not None and self._event.pending

    @property
    def deadline(self):
        return self._event.time if self.armed else None

    def start(self, delay):
        self.cancel()
        self._event = self._scheduler.after(delay, self._fire)

    def cancel(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self._callback()


class CancelAndReschedulePeriodic(CancelAndRescheduleTimer):
    """The periodic reference: a new event per tick and per ``start``."""

    def __init__(self, scheduler, callback, interval):
        super().__init__(scheduler, callback)
        self.interval = interval

    def start(self, first_delay=None):
        super().start(self.interval if first_delay is None else first_delay)

    stop = CancelAndRescheduleTimer.cancel

    def _fire(self):
        self._event = self._scheduler.after(self.interval, self._fire)
        self._callback()


class World:
    """A scheduler, a few timers, a periodic one and a firing log, driven by a program."""

    def __init__(self, timer_class, periodic_class, chains):
        self.scheduler = Scheduler()
        self.log = []
        self.plain = []
        self.timers = [
            timer_class(self.scheduler, self._on_fire(index, chains[index]))
            for index in range(N_TIMERS)
        ]
        self.periodic = periodic_class(
            self.scheduler, lambda: self.log.append((self.scheduler.now, "tick")), 0.75
        )

    def _on_fire(self, index, chain):
        def fire():
            self.log.append((self.scheduler.now, "timer{}".format(index)))
            if chain is not None:
                # Re-arm another timer (or this one) from inside the run
                # loop: a defer of an event that may be the heap's head.
                target, delay = chain
                self.timers[target].start(delay)

        return fire

    def apply(self, step):
        kind = step[0]
        scheduler = self.scheduler
        if kind == "start":
            self.timers[step[1]].start(step[2])
        elif kind == "cancel":
            self.timers[step[1]].cancel()
        elif kind == "after":
            label = "plain{}".format(len(self.log))
            self.plain.append(
                scheduler.after(step[1], lambda: self.log.append((scheduler.now, label)))
            )
        elif kind == "cancel_plain":
            if self.plain:
                self.plain[step[1] % len(self.plain)].cancel()
        elif kind == "periodic_start":
            self.periodic.start(step[1])
        elif kind == "periodic_stop":
            self.periodic.stop()
        elif kind == "peek":
            # A step of its own: it drops corpses off the head, and a
            # corpse left in the heap is what a later start revives.
            self.log.append(("next", scheduler.next_event_time()))
        elif kind == "run_until":
            scheduler.run(until=scheduler.now + step[1])
        else:
            scheduler.run(max_events=step[1])

    def observed(self):
        scheduler = self.scheduler
        return {
            "log": list(self.log),
            "events_fired": scheduler.events_fired,
            "pending_count": scheduler.pending_count,
            "now": scheduler.now,
            "timers": [(timer.armed, timer.deadline) for timer in self.timers],
            "periodic": self.periodic.deadline,
        }


# Delays on a coarse grid, so equal instants (ties broken by seq alone)
# and refreshes to an earlier, equal and later deadline all occur.
delays = st.integers(0, 8).map(lambda quarter: quarter * 0.25)
timer_index = st.integers(0, N_TIMERS - 1)
steps = st.one_of(
    st.tuples(st.just("start"), timer_index, delays),
    st.tuples(st.just("cancel"), timer_index),
    st.tuples(st.just("after"), delays),
    st.tuples(st.just("cancel_plain"), st.integers(0, 7)),
    st.tuples(st.just("periodic_start"), st.one_of(st.none(), delays)),
    st.tuples(st.just("periodic_stop")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("run_until"), delays),
    st.tuples(st.just("run_events"), st.integers(0, 3)),
)
chains = st.lists(
    st.one_of(st.none(), st.tuples(timer_index, delays.filter(lambda d: d > 0))),
    min_size=N_TIMERS,
    max_size=N_TIMERS,
)


# Against the timer PR 19 deleted: a one-time equivalence the golden
# pins hold from here on, so it runs in the soak job, not in tier-1.
@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(chains, st.lists(steps, max_size=40))
def test_deferred_timers_fire_exactly_where_rescheduled_ones_would(chains, program):
    real = World(Timer, PeriodicTimer, chains)
    reference = World(CancelAndRescheduleTimer, CancelAndReschedulePeriodic, chains)
    for step in program:
        real.apply(step)
        reference.apply(step)
        assert real.observed() == reference.observed()
    # Drain (bounded: a self-chaining timer never runs dry).
    for world in (real, reference):
        world.scheduler.run(until=world.scheduler.now + 10.0)
    assert real.observed() == reference.observed()


def test_refresh_to_an_earlier_deadline_cancels_and_rearms():
    scheduler = Scheduler()
    fired = []
    timer = Timer(scheduler, lambda: fired.append(scheduler.now))
    timer.start(2.0)
    first = timer._event
    timer.start(1.0)
    assert first.cancelled
    assert timer._event is not first
    assert timer.deadline == 1.0
    scheduler.run()
    assert fired == [1.0]
    assert scheduler.events_fired == 1


def test_defer_refuses_a_fired_or_cancelled_event_and_changes_nothing():
    scheduler = Scheduler()
    fired_event = scheduler.after(1.0, lambda: None)
    cancelled_event = scheduler.after(2.0, lambda: None)
    cancelled_event.cancel()
    scheduler.run()
    next_seq = scheduler._seq
    for event in (fired_event, cancelled_event):
        key = (event.time, event.seq)
        assert scheduler.defer(event, 5.0) is False
        assert (event.time, event.seq) == key
        assert not event.pending
    assert scheduler._seq == next_seq
    assert scheduler.pending_count == 0
    assert scheduler.next_event_time() is None


def test_defer_refuses_an_earlier_deadline_and_changes_nothing():
    scheduler = Scheduler()
    event = scheduler.after(2.0, lambda: None)
    key = (event.time, event.seq)
    next_seq = scheduler._seq
    assert scheduler.defer(event, 1.0) is False
    assert (event.time, event.seq) == key
    assert scheduler._seq == next_seq


def test_deferred_event_takes_the_replacements_sequence_number():
    scheduler = Scheduler()
    order = []
    deferred = scheduler.after(1.0, order.append, "deferred")
    scheduler.after(1.0, order.append, "same-instant, scheduled before the refresh")
    assert scheduler.defer(deferred, 1.0) is True
    scheduler.after(1.0, order.append, "same-instant, scheduled after the refresh")
    scheduler.run()
    assert order == [
        "same-instant, scheduled before the refresh",
        "deferred",
        "same-instant, scheduled after the refresh",
    ]


def test_stale_head_neither_fires_nor_reports_its_old_time():
    scheduler = Scheduler()
    fired = []
    timer = Timer(scheduler, lambda: fired.append(scheduler.now))
    timer.start(1.0)
    timer.start(2.0)  # the heap entry still says 1.0
    assert scheduler.next_event_time() == 2.0
    timer.start(3.0)  # stale again, key 2.0
    # The stale key is inside the window, the event is not.
    assert scheduler.run(until=2.5) == 0
    assert fired == []
    assert scheduler.events_fired == 0
    assert scheduler.now == 2.5
    assert scheduler.pending_count == 1
    assert scheduler.next_event_time() == 3.0
    assert scheduler.run() == 1
    assert fired == [3.0]


def test_stale_head_does_not_set_the_clock_of_a_bounded_run():
    scheduler = Scheduler()
    timer = Timer(scheduler, lambda: None)
    timer.start(1.0)
    timer.start(4.0)
    # Nothing may fire: the only entry is stale. The clock stays put.
    assert scheduler.run(max_events=0) == 0
    assert scheduler.now == 0.0
    times = []
    scheduler.after(2.0, lambda: times.append(scheduler.now))
    assert scheduler.run(max_events=1) == 1
    assert times == [2.0]
    assert scheduler.now == 2.0


def test_cancelling_a_deferred_event_leaves_one_corpse():
    scheduler = Scheduler()
    fired = []
    timer = Timer(scheduler, lambda: fired.append(scheduler.now))
    timer.start(1.0)
    timer.start(2.0)
    timer.cancel()
    assert scheduler.pending_count == 0
    assert len(scheduler._heap) == 1
    assert scheduler.next_event_time() is None
    assert len(scheduler._heap) == 0
    scheduler.run()
    assert fired == []


def test_refreshes_keep_one_heap_entry_per_live_timer():
    scheduler = Scheduler()
    fired = []
    timers = [Timer(scheduler, lambda: fired.append(scheduler.now)) for _ in range(8)]
    deepest = [0]
    rounds = []

    def refresh():
        for timer in timers:
            timer.start(3.0)
        rounds.append(scheduler.now)
        deepest[0] = max(deepest[0], len(scheduler._heap))

    # 1 250 rounds x 8 timers = 10 000 refreshes, 50 ms apart.
    refresher = PeriodicTimer(scheduler, refresh, 0.05)
    refresher.start(first_delay=0.0)
    scheduler.run(max_events=1250)
    refresher.stop()
    assert len(rounds) == 1250
    assert fired == []
    assert scheduler.pending_count == len(timers)
    # One entry per timer plus the refresher's, never a corpse per
    # refresh (the parent's heap grew to the compaction threshold, 64
    # dead entries on top of the live ones, and hovered there).
    assert deepest[0] == len(timers) + 1
    scheduler.run()
    assert fired == [rounds[-1] + 3.0] * len(timers)

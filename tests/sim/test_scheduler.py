"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.errors import SchedulerError
from repro.sim.scheduler import Scheduler


def test_starts_at_time_zero():
    assert Scheduler().now == 0.0


def test_runs_events_in_time_order():
    scheduler = Scheduler()
    order = []
    scheduler.after(0.3, order.append, "c")
    scheduler.after(0.1, order.append, "a")
    scheduler.after(0.2, order.append, "b")
    scheduler.run()
    assert order == ["a", "b", "c"]


def test_equal_time_events_run_fifo():
    scheduler = Scheduler()
    order = []
    for label in "abcde":
        scheduler.after(1.0, order.append, label)
    scheduler.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    scheduler = Scheduler()
    seen = []
    scheduler.after(2.5, lambda: seen.append(scheduler.now))
    scheduler.run()
    assert seen == [2.5]
    assert scheduler.now == 2.5


def test_run_until_stops_before_later_events():
    scheduler = Scheduler()
    fired = []
    scheduler.after(1.0, fired.append, 1)
    scheduler.after(5.0, fired.append, 5)
    scheduler.run(until=2.0)
    assert fired == [1]
    assert scheduler.now == 2.0


def test_run_until_executes_event_exactly_at_boundary():
    scheduler = Scheduler()
    fired = []
    scheduler.after(2.0, fired.append, 2)
    scheduler.run(until=2.0)
    assert fired == [2]


def test_run_until_advances_clock_even_when_idle():
    scheduler = Scheduler()
    scheduler.run(until=7.0)
    assert scheduler.now == 7.0


def test_cancelled_event_does_not_fire():
    scheduler = Scheduler()
    fired = []
    event = scheduler.after(1.0, fired.append, "x")
    event.cancel()
    scheduler.run()
    assert fired == []


def test_cancel_is_idempotent():
    scheduler = Scheduler()
    event = scheduler.after(1.0, lambda: None)
    event.cancel()
    event.cancel()
    scheduler.run()
    assert not event.pending


def test_events_scheduled_during_run_execute():
    scheduler = Scheduler()
    order = []

    def first():
        order.append("first")
        scheduler.after(1.0, lambda: order.append("second"))

    scheduler.after(1.0, first)
    scheduler.run()
    assert order == ["first", "second"]
    assert scheduler.now == 2.0


def test_zero_delay_event_runs_at_current_time():
    scheduler = Scheduler()
    seen = []
    scheduler.after(1.0, lambda: scheduler.after(0.0, lambda: seen.append(scheduler.now)))
    scheduler.run()
    assert seen == [1.0]


def test_scheduling_in_the_past_raises():
    scheduler = Scheduler()
    scheduler.after(1.0, lambda: None)
    scheduler.run()
    with pytest.raises(SchedulerError):
        scheduler.at(0.5, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SchedulerError):
        Scheduler().after(-1.0, lambda: None)


def test_max_events_limits_execution():
    scheduler = Scheduler()
    fired = []
    for index in range(10):
        scheduler.after(0.1 * (index + 1), fired.append, index)
    scheduler.run(max_events=3)
    assert fired == [0, 1, 2]


def test_run_returns_number_of_fired_events():
    scheduler = Scheduler()
    for index in range(4):
        scheduler.after(0.1, lambda: None)
    assert scheduler.run() == 4


def test_events_fired_counter_accumulates():
    scheduler = Scheduler()
    scheduler.after(0.1, lambda: None)
    scheduler.run()
    scheduler.after(0.1, lambda: None)
    scheduler.run()
    assert scheduler.events_fired == 2


def test_run_until_idle_raises_on_runaway_loop():
    scheduler = Scheduler()

    def loop():
        scheduler.after(0.1, loop)

    scheduler.after(0.1, loop)
    with pytest.raises(SchedulerError):
        scheduler.run_until_idle(max_events=100)


def test_next_event_time_skips_cancelled():
    scheduler = Scheduler()
    event = scheduler.after(1.0, lambda: None)
    scheduler.after(2.0, lambda: None)
    event.cancel()
    assert scheduler.next_event_time() == 2.0


def test_next_event_time_none_when_idle():
    assert Scheduler().next_event_time() is None


def test_reentrant_run_is_rejected():
    scheduler = Scheduler()
    errors = []

    def reenter():
        try:
            scheduler.run()
        except SchedulerError as exc:
            errors.append(exc)

    scheduler.after(0.1, reenter)
    scheduler.run()
    assert len(errors) == 1


# ----------------------------------------------------------------------
# lazy cancellation, compaction, and event recycling


def test_pending_count_excludes_cancelled_events():
    scheduler = Scheduler()
    events = [scheduler.after(1.0, lambda: None) for _ in range(5)]
    events[0].cancel()
    events[3].cancel()
    assert scheduler.pending_count == 3


def test_until_and_max_events_combined_stop_at_first_limit():
    scheduler = Scheduler()
    fired = []
    for index in range(10):
        scheduler.after(0.1 * (index + 1), fired.append, index)
    # max_events binds first: only 2 of the 5 events before until=0.55.
    assert scheduler.run(until=0.55, max_events=2) == 2
    assert fired == [0, 1]
    # until binds next; the clock still lands exactly on until.
    assert scheduler.run(until=0.55, max_events=100) == 3
    assert fired == [0, 1, 2, 3, 4]
    assert scheduler.now == 0.55


def test_capped_run_leaves_the_clock_at_the_last_fired_event():
    scheduler = Scheduler()
    seen = []
    for index in range(10):
        scheduler.after(0.1 * (index + 1), lambda: seen.append(scheduler.now))
    assert scheduler.run(until=0.55, max_events=2) == 2
    assert scheduler.now == seen[-1] == pytest.approx(0.2)
    assert scheduler.next_event_time() == pytest.approx(0.3)
    # A delay taken between the runs counts from the last fired event.
    scheduler.after(0.05, lambda: seen.append(scheduler.now))
    scheduler.run(until=0.55)
    assert seen == sorted(seen) and len(seen) == 6
    assert seen[2] == pytest.approx(0.25)
    assert scheduler.now == 0.55


def test_capped_run_with_nothing_left_by_until_still_reaches_until():
    scheduler = Scheduler()
    scheduler.after(0.1, lambda: None)
    scheduler.after(0.9, lambda: None)
    assert scheduler.run(until=0.5, max_events=1) == 1
    assert scheduler.now == 0.5


def test_event_exactly_at_until_fires():
    scheduler = Scheduler()
    fired = []
    scheduler.after(1.0, fired.append, "at")
    scheduler.after(1.0 + 1e-9, fired.append, "after")
    scheduler.run(until=1.0)
    assert fired == ["at"]
    assert scheduler.now == 1.0


def test_cancellation_during_fire_suppresses_later_event():
    scheduler = Scheduler()
    fired = []
    victim = scheduler.after(2.0, fired.append, "victim")
    scheduler.after(1.0, victim.cancel)
    scheduler.after(3.0, fired.append, "survivor")
    scheduler.run()
    assert fired == ["survivor"]
    assert scheduler.pending_count == 0


def test_event_cancelling_itself_during_fire_is_harmless():
    scheduler = Scheduler()
    fired = []
    holder = {}

    def self_cancel():
        holder["event"].cancel()
        fired.append("ran")

    holder["event"] = scheduler.after(1.0, self_cancel)
    scheduler.after(2.0, fired.append, "later")
    scheduler.run()
    assert fired == ["ran", "later"]
    assert scheduler.pending_count == 0


def test_compaction_preserves_fifo_order_under_mass_cancellation():
    # Schedule far more than the compaction floor at one instant, cancel
    # most of them to force an in-place heap rebuild, and check that the
    # survivors still run in exact scheduling (FIFO) order.
    scheduler = Scheduler()
    fired = []
    events = []
    for index in range(300):
        events.append(scheduler.after(1.0, fired.append, index))
    keep = set(range(0, 300, 7))
    for index, event in enumerate(events):
        if index not in keep:
            event.cancel()
    assert scheduler.pending_count == len(keep)
    scheduler.run()
    assert fired == sorted(keep)


def test_compaction_during_run_keeps_order():
    # The first event cancels hundreds of pending events, driving the
    # dead-entry ratio over the compaction threshold mid-run; the
    # remaining live events must still fire in (time, seq) order.
    scheduler = Scheduler()
    fired = []
    doomed = [scheduler.after(5.0, fired.append, "dead") for _ in range(200)]
    scheduler.after(1.0, lambda: [event.cancel() for event in doomed])
    scheduler.after(2.0, fired.append, "a")
    scheduler.after(3.0, fired.append, "b")
    scheduler.run()
    assert fired == ["a", "b"]


def test_run_until_idle_ignores_cancelled_backlog():
    scheduler = Scheduler()
    events = [scheduler.after(1.0, lambda: None) for _ in range(10)]
    for event in events:
        event.cancel()
    # All events are dead: idle means zero callbacks, no runaway error.
    assert scheduler.run_until_idle(max_events=5) == 0


def test_reschedule_reuses_fired_event_with_fifo_order():
    scheduler = Scheduler()
    fired = []
    event = scheduler.after(1.0, fired.append, "first")
    scheduler.run()
    recycled = scheduler.reschedule(event, 1.0, fired.append, "second")
    assert recycled is event
    scheduler.after(2.0, fired.append, "third")  # same instant, later seq
    scheduler.run()
    assert fired == ["first", "second", "third"]


def test_reschedule_rejects_pending_event():
    scheduler = Scheduler()
    event = scheduler.after(1.0, lambda: None)
    with pytest.raises(SchedulerError):
        scheduler.reschedule(event, 1.0, lambda: None)


def test_reschedule_rejects_negative_delay():
    scheduler = Scheduler()
    event = scheduler.after(0.1, lambda: None)
    scheduler.run()
    with pytest.raises(SchedulerError):
        scheduler.reschedule(event, -0.5, lambda: None)

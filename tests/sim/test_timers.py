"""Unit tests for one-shot and periodic timers."""

from types import SimpleNamespace

import pytest

from repro.sim.scheduler import Scheduler
from repro.sim.timers import PeriodicTimer, Timer


def test_timer_fires_after_delay():
    scheduler = Scheduler()
    fired = []
    timer = Timer(scheduler, lambda: fired.append(scheduler.now))
    timer.start(1.5)
    scheduler.run()
    assert fired == [1.5]


def test_timer_restart_supersedes_previous_deadline():
    scheduler = Scheduler()
    fired = []
    timer = Timer(scheduler, lambda: fired.append(scheduler.now))
    timer.start(1.0)
    scheduler.after(0.5, lambda: timer.start(1.0))
    scheduler.run()
    assert fired == [1.5]


def test_timer_cancel_prevents_firing():
    scheduler = Scheduler()
    fired = []
    timer = Timer(scheduler, lambda: fired.append(1))
    timer.start(1.0)
    timer.cancel()
    scheduler.run()
    assert fired == []


def test_timer_armed_and_deadline():
    scheduler = Scheduler()
    timer = Timer(scheduler, lambda: None)
    assert not timer.armed
    assert timer.deadline is None
    timer.start(2.0)
    assert timer.armed
    assert timer.deadline == 2.0
    scheduler.run()
    assert not timer.armed


def test_timer_can_be_reused_after_firing():
    scheduler = Scheduler()
    fired = []
    timer = Timer(scheduler, lambda: fired.append(scheduler.now))
    timer.start(1.0)
    scheduler.run()
    timer.start(1.0)
    scheduler.run()
    assert fired == [1.0, 2.0]


def test_periodic_timer_fires_repeatedly():
    scheduler = Scheduler()
    ticks = []
    timer = PeriodicTimer(scheduler, lambda: ticks.append(scheduler.now), 1.0)
    timer.start()
    scheduler.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]


def test_periodic_timer_first_delay_override():
    scheduler = Scheduler()
    ticks = []
    timer = PeriodicTimer(scheduler, lambda: ticks.append(scheduler.now), 1.0)
    timer.start(first_delay=0.0)
    scheduler.run(until=2.5)
    assert ticks == [0.0, 1.0, 2.0]


def test_periodic_timer_stop_halts_ticks():
    scheduler = Scheduler()
    ticks = []
    timer = PeriodicTimer(scheduler, lambda: ticks.append(scheduler.now), 1.0)
    timer.start()
    scheduler.after(2.5, timer.stop)
    scheduler.run(until=10.0)
    assert ticks == [1.0, 2.0]


def test_periodic_timer_stop_when_not_running_is_safe():
    timer = PeriodicTimer(Scheduler(), lambda: None, 1.0)
    timer.stop()
    assert not timer.running


def test_periodic_timer_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        PeriodicTimer(Scheduler(), lambda: None, 0.0)


def test_periodic_timer_restart_resets_phase():
    scheduler = Scheduler()
    ticks = []
    timer = PeriodicTimer(scheduler, lambda: ticks.append(scheduler.now), 1.0)
    timer.start()
    scheduler.after(0.5, timer.start)
    scheduler.run(until=2.0)
    assert ticks == [1.5]


# ----------------------------------------------------------------------
# event recycling (Scheduler.reschedule fast path)


def test_cancel_then_start_revives_the_same_event_which_fires_once():
    scheduler = Scheduler()
    fired = []
    timer = Timer(scheduler, lambda: fired.append(scheduler.now))
    timer.start(1.0)
    event = timer._event
    timer.cancel()
    assert not timer.armed
    timer.start(1.5)
    # Revived in place: its one heap entry, no corpse and no new event.
    assert timer._event is event
    assert timer.deadline == 1.5
    assert len(scheduler._heap) == 1
    assert scheduler.pending_count == 1
    scheduler.run()
    assert fired == [1.5]
    assert scheduler.events_fired == 1


def test_an_earlier_deadline_after_a_cancel_fires_only_at_the_earlier_time():
    scheduler = Scheduler()
    fired = []
    timer = Timer(scheduler, lambda: fired.append(scheduler.now))
    timer.start(2.0)
    first = timer._event
    timer.cancel()
    timer.start(1.0)
    assert timer._event is not first
    assert first.cancelled
    scheduler.run()
    assert fired == [1.0]
    assert scheduler.events_fired == 1
    assert scheduler.now == 1.0  # the corpse at 2.0 neither fired nor moved the clock


def test_a_popped_corpse_is_reused():
    scheduler = Scheduler()
    fired = []
    timer = Timer(scheduler, lambda: fired.append(scheduler.now))
    timer.start(1.0)
    event = timer._event
    timer.cancel()
    scheduler.run(until=1.0)  # the corpse surfaces, and dies
    assert event.callback is None
    assert len(scheduler._heap) == 0
    timer.start(1.0)
    assert timer._event is event
    scheduler.run()
    assert fired == [2.0]
    # After it fires, the same event serves the next start too.
    timer.start(1.0)
    assert timer._event is event
    scheduler.run()
    assert fired == [2.0, 3.0]


def test_timer_refresh_before_fire_defers_the_pending_event():
    scheduler = Scheduler()
    fired = []
    timer = Timer(scheduler, lambda: fired.append(scheduler.now))
    timer.start(1.0)
    pending = timer._event
    scheduler.after(0.5, timer.start, 1.0)  # refresh: later deadline
    scheduler.run(until=0.75)
    # The pending event was postponed in place, not cancelled and replaced.
    assert timer._event is pending
    assert not pending.cancelled
    assert timer.deadline == 1.5
    scheduler.run()
    assert fired == [1.5]


def test_periodic_timer_recycles_one_event_across_ticks():
    scheduler = Scheduler()
    ticks = []
    timer = PeriodicTimer(scheduler, lambda: ticks.append(scheduler.now), 1.0)
    timer.start()
    seen = set()
    original = timer._event

    def snapshot():
        seen.add(id(timer._event))

    probe = PeriodicTimer(scheduler, snapshot, 1.0)
    probe.start(first_delay=1.5)
    scheduler.run(until=5.2)
    timer.stop()
    probe.stop()
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    # Every tick reused the same Event object.
    assert seen == {id(original)}


def _grid(skip, rescale_at=None):
    """Tick times of a 0.3 s timer at scale 1.7 (0.51 is not exact in
    binary, so every tick's addition rounds); with ``skip`` its third tick
    skips all ticks before t = 40, and at ``rescale_at`` the scale becomes 2.3."""
    scheduler = Scheduler()
    owner = SimpleNamespace(alive=True, time_scale=1.7)
    seen = []

    def tick():
        seen.append(scheduler.now)
        if skip and len(seen) == 3:
            timer.skip_while(lambda time: time < 40.0)

    def rescale():
        owner.time_scale = 2.3
        timer.rescaled()

    timer = PeriodicTimer(scheduler, tick, 0.3, owner=owner)
    timer.start()
    if rescale_at is not None:
        scheduler.at(rescale_at, rescale)
    scheduler.run(until=60.0)
    return seen


def test_skip_while_lands_on_the_tick_the_timer_would_have_reached():
    every = _grid(skip=False)
    assert _grid(skip=True) == every[:3] + [time for time in every if time >= 40.0]


def test_rescaled_files_a_skipped_tick_back_where_the_timer_had_it():
    every = _grid(skip=False, rescale_at=20.05)
    skipped = _grid(skip=True, rescale_at=20.05)
    assert skipped == every[:3] + [time for time in every if time >= 20.05]
    assert len(skipped) > 3 and skipped[3] < 40.0

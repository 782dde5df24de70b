"""Barrier-stepping semantics of ``Scheduler.run(until=, inclusive=)``.

A caller that steps a scheduler through half-open intervals
``[B_k, B_{k+1})`` needs an event exactly at a boundary to fire in the
interval that *starts* there. These tests pin that boundary behaviour,
plus the adaptive heap-compaction threshold.
"""

from repro.sim.scheduler import Scheduler


def _noop():
    return None


def test_exclusive_run_defers_event_exactly_at_barrier():
    scheduler = Scheduler()
    fired = []
    scheduler.after(2.0, fired.append, "at-barrier")
    scheduler.run(until=2.0, inclusive=False)
    assert fired == []
    # The clock still reaches the barrier and the deferred event is
    # what next_event_time reports.
    assert scheduler.now == 2.0
    assert scheduler.next_event_time() == 2.0
    assert scheduler.pending_count == 1


def test_deferred_barrier_event_fires_exactly_once_next_epoch():
    scheduler = Scheduler()
    fired = []
    scheduler.after(2.0, fired.append, "a")
    scheduler.run(until=2.0, inclusive=False)
    scheduler.run(until=3.0, inclusive=False)
    assert fired == ["a"]
    assert scheduler.next_event_time() is None


def test_exclusive_epochs_partition_the_timeline():
    scheduler = Scheduler()
    fired = []
    for time in (0.5, 1.0, 1.5, 2.0):
        scheduler.after(time, fired.append, time)
    scheduler.run(until=1.0, inclusive=False)
    assert fired == [0.5]
    scheduler.run(until=2.0, inclusive=False)
    assert fired == [0.5, 1.0, 1.5]
    # The final (inclusive) epoch closes the horizon like a plain run.
    scheduler.run(until=2.0)
    assert fired == [0.5, 1.0, 1.5, 2.0]
    assert scheduler.now == 2.0


def test_inclusive_default_still_fires_barrier_event():
    scheduler = Scheduler()
    fired = []
    scheduler.after(2.0, fired.append, "a")
    scheduler.run(until=2.0)
    assert fired == ["a"]


def test_event_scheduled_at_barrier_during_epoch_is_deferred():
    # An event that, while running, schedules work exactly at the
    # epoch's own barrier: the new event belongs to the next epoch.
    scheduler = Scheduler()
    fired = []
    scheduler.after(1.0, lambda: scheduler.at(2.0, fired.append, "late"))
    scheduler.run(until=2.0, inclusive=False)
    assert fired == []
    assert scheduler.next_event_time() == 2.0


def test_compaction_holds_off_while_live_heap_dominates():
    # Adaptive threshold: cancelled entries are only worth a rebuild
    # once they reach max(64, live/8). With 1000 live events, 80
    # corpses stay in the heap (80 * 8 < 1000).
    scheduler = Scheduler()
    for index in range(1000):
        scheduler.after(100.0 + index, _noop)
    dead = [scheduler.after(1.0 + index * 0.001, _noop) for index in range(80)]
    for event in dead:
        event.cancel()
    assert scheduler._cancelled == 80
    assert len(scheduler._heap) == 1080
    assert scheduler.pending_count == 1000


def test_compaction_triggers_once_corpses_reach_adaptive_share():
    # With a small live heap the old fixed threshold still applies:
    # the 64th cancel (64 * 8 >= live) rebuilds the heap in place.
    scheduler = Scheduler()
    for index in range(100):
        scheduler.after(100.0 + index, _noop)
    dead = [scheduler.after(1.0 + index * 0.001, _noop) for index in range(64)]
    for event in dead:
        event.cancel()
    assert scheduler._cancelled == 0
    assert len(scheduler._heap) == 100
    assert scheduler.pending_count == 100


def test_compaction_never_drops_live_events():
    scheduler = Scheduler()
    fired = []
    for index in range(100):
        scheduler.after(10.0 + index * 0.01, fired.append, index)
    dead = [scheduler.after(1.0, _noop) for _ in range(200)]
    for event in dead:
        event.cancel()
    scheduler.run()
    assert fired == list(range(100))

"""``Scheduler.run(until=)`` at its boundary, and corpses in the heap.

An event exactly at ``until`` fires during the run that ends there. A
cancelled event keeps its heap entry until it surfaces, and no count of
live events includes it.
"""

from repro.sim.scheduler import Scheduler


def _noop():
    return None


def test_inclusive_default_still_fires_barrier_event():
    scheduler = Scheduler()
    fired = []
    scheduler.after(2.0, fired.append, "a")
    scheduler.run(until=2.0)
    assert fired == ["a"]


def test_compaction_holds_off_while_live_heap_dominates():
    # Corpses stay in the heap until they surface: with 1000 live
    # events, 80 cancelled ones keep their 80 entries.
    scheduler = Scheduler()
    for index in range(1000):
        scheduler.after(100.0 + index, _noop)
    dead = [scheduler.after(1.0 + index * 0.001, _noop) for index in range(80)]
    for event in dead:
        event.cancel()
    assert scheduler._cancelled == 80
    assert len(scheduler._heap) == 1080
    assert scheduler.pending_count == 1000


def test_pending_count_never_counts_a_corpse():
    scheduler = Scheduler()
    live = [scheduler.after(2.0 + index, _noop) for index in range(3)]
    dead = [scheduler.after(1.0 + index * 0.001, _noop) for index in range(64)]
    for event in dead:
        event.cancel()
        event.cancel()  # a second cancel counts nothing
    assert len(scheduler._heap) == 67
    assert scheduler.pending_count == 3
    # Reviving one makes it live; deferring a live one changes no count.
    assert scheduler.defer(dead[0], 5.0)
    assert scheduler.defer(live[0], 2.5)
    assert scheduler.pending_count == 4
    live[1].cancel()
    assert scheduler.pending_count == 3
    # Corpses that surface are dropped; a fired or dead event's cancel counts nothing.
    assert scheduler.run(until=2.6) == 1
    assert scheduler.pending_count == 2
    for event in dead[1:] + [live[0]]:
        event.cancel()
    assert scheduler.pending_count == 2
    assert scheduler.run() == 2
    assert scheduler.pending_count == 0
    assert scheduler._heap == []


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

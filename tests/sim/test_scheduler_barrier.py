"""``Scheduler.run(until=)`` at its boundary, and the adaptive heap compaction.

An event exactly at ``until`` fires during the run that ends there.
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

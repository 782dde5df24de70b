"""Unit tests for the structured trace log."""

import weakref

import pytest

from repro.sim.simulation import Simulation
from repro.sim.trace import TraceFold, TraceLog


def make_log(time=0.0):
    holder = {"t": time}
    log = TraceLog(clock=lambda: holder["t"])
    return log, holder


def test_emit_records_time_and_details():
    log, holder = make_log()
    holder["t"] = 4.2
    record = log.emit("cat", "src", "event", value=1)
    assert record.time == 4.2
    assert record.details == {"value": 1}


def test_select_filters_by_all_fields():
    log, holder = make_log()
    log.emit("a", "x", "e1")
    holder["t"] = 1.0
    log.emit("a", "y", "e1")
    log.emit("b", "x", "e2")
    assert len(log.select(category="a")) == 2
    assert len(log.select(source="x")) == 2
    assert len(log.select(event="e2")) == 1
    assert len(log.select(category="a", source="y")) == 1
    assert len(log.select(since=0.5)) == 2


def test_last_returns_most_recent_match():
    log, holder = make_log()
    log.emit("a", "x", "e")
    holder["t"] = 2.0
    log.emit("a", "x", "e")
    assert log.last(category="a").time == 2.0
    assert log.last(category="zzz") is None


def test_count_tracks_even_when_disabled():
    log, _ = make_log()
    log.enabled = False
    log.emit("a", "x", "e")
    log.emit("a", "x", "e")
    assert log.count("a", "e") == 2
    assert log.records == []


def test_count_by_category_sums_events():
    log, _ = make_log()
    log.emit("a", "x", "e1")
    log.emit("a", "x", "e2")
    assert log.count("a") == 2


def test_capacity_bounds_memory():
    log = TraceLog(clock=lambda: 0.0, capacity=3)
    for index in range(10):
        log.emit("a", "x", "e", i=index)
    assert len(log.records) == 3
    assert log.records[-1].details["i"] == 9


def test_capacity_trims_oldest_and_preserves_order():
    """Intended capacity semantics: keep exactly the newest N, in order."""
    log = TraceLog(clock=lambda: 0.0, capacity=4)
    for index in range(9):
        log.emit("a", "x", "e", i=index)
    assert [r.details["i"] for r in log.records] == [5, 6, 7, 8]


def test_counts_survive_capacity_trimming():
    """Counters report whole-run totals even after records are trimmed."""
    log = TraceLog(clock=lambda: 0.0, capacity=2)
    for _ in range(7):
        log.emit("a", "x", "e")
    assert len(log.records) == 2
    assert log.count("a", "e") == 7
    assert log.count("a") == 7


def test_tail_returns_newest_first_to_last():
    log, _ = make_log()
    for index in range(6):
        log.emit("a", "x", "e", i=index)
    assert [r.details["i"] for r in log.tail(3)] == [3, 4, 5]
    assert log.tail(0) == []
    assert len(log.tail(100)) == 6


def test_disabled_emit_returns_none_but_counts():
    """Intended disabled semantics: drop records, keep counting."""
    log, _ = make_log()
    log.enabled = False
    assert log.emit("a", "x", "e") is None
    assert log.records == []
    assert log.count("a", "e") == 1
    # Re-enabling resumes recording without losing the earlier counts.
    log.enabled = True
    record = log.emit("a", "x", "e")
    assert record is not None
    assert log.count("a", "e") == 2
    assert len(log.records) == 1


@pytest.mark.parametrize("capacity", [-1, 0, 2.5])
@pytest.mark.parametrize("build", [TraceLog, Simulation], ids=["TraceLog", "Simulation"])
def test_bad_trace_capacity_fails_loudly(build, capacity):
    """A window that keeps nothing, or rounds, is a mistake, not a mode."""
    key = "capacity" if build is TraceLog else "trace_capacity"
    with pytest.raises(ValueError, match="trace_capacity"):
        build(**{key: capacity})


def test_trimmed_records_are_counted_from_the_first_drop():
    sim = Simulation(trace_capacity=3)
    for index in range(3):
        sim.trace.emit("a", "x", "e", i=index)
    # A run that drops nothing keeps its metric catalog unchanged.
    assert "sim.trace_dropped" not in sim.metrics.totals()
    for index in range(3, 10):
        sim.trace.emit("a", "x", "e", i=index)
    assert sim.metrics.totals()["sim.trace_dropped"] == 7
    assert len(sim.trace.records) == 3


class _Sum(TraceFold):
    KEYS = frozenset({("a", "e")})

    def __init__(self):
        self.seen = []

    def feed(self, record):
        self.seen.append(record.details["i"])


def test_a_fold_sees_every_record_it_reads_past_the_window():
    log = TraceLog(clock=lambda: 0.0, capacity=2)
    log.emit("a", "e", "x", i=-1)  # key ("a", "x"): not read
    log.emit("a", "x", "e", i=0)
    fold = log.fold(_Sum)
    assert fold.seen == [0]  # caught up on the retained window
    for index in range(1, 6):
        log.emit("a", "x", "e", i=index)
        log.emit("b", "x", "e", i=index)
    assert log.fold(_Sum) is fold
    assert fold.seen == [0, 1, 2, 3, 4, 5]
    assert _Sum.over(log.records).seen == [5]  # the offline fold sees the window


def test_reenabling_applies_capacity_to_new_records():
    """Flipping enabled back on resumes the same bounded window."""
    log = TraceLog(clock=lambda: 0.0, capacity=2)
    log.enabled = False
    for _ in range(4):
        assert log.emit("a", "x", "e") is None
    assert log.records == []
    log.enabled = True
    for index in range(3):
        log.emit("a", "x", "e", i=index)
    assert [r.details["i"] for r in log.records] == [1, 2]
    # Counters span the disabled stretch and the trimmed records alike.
    assert log.count("a", "e") == 7


def test_clear_resets_everything():
    log, _ = make_log()
    log.emit("a", "x", "e")
    log.clear()
    assert log.records == []
    assert log.count("a") == 0


# ----------------------------------------------------------------------
# bounded window and category filtering


def test_capacity_window_is_exact_under_sustained_emits():
    log = TraceLog(clock=lambda: 0.0, capacity=5)
    for index in range(137):
        log.emit("a", "x", "e", i=index)
        # The retained window never exceeds capacity, even mid-stream.
        assert len(log.records) == min(index + 1, 5)
    assert [r.details["i"] for r in log.records] == [132, 133, 134, 135, 136]
    assert log.count("a", "e") == 137


def test_tail_spans_the_trimmed_window():
    log = TraceLog(clock=lambda: 0.0, capacity=4)
    for index in range(10):
        log.emit("a", "x", "e", i=index)
    assert [r.details["i"] for r in log.tail(2)] == [8, 9]
    # Asking for more than is retained returns the whole window.
    assert [r.details["i"] for r in log.tail(99)] == [6, 7, 8, 9]


def test_clear_resets_ring_buffer_state():
    log = TraceLog(clock=lambda: 0.0, capacity=3)
    for index in range(8):
        log.emit("a", "x", "e", i=index)
    log.clear()
    assert log.records == []
    assert log.count("a", "e") == 0
    log.emit("a", "x", "e", i=100)
    assert [r.details["i"] for r in log.records] == [100]


def test_category_filter_stores_only_selected_categories():
    log = TraceLog(clock=lambda: 0.0, categories={"keep"})
    kept = log.emit("keep", "x", "e1")
    dropped = log.emit("drop", "x", "e2")
    assert kept is not None and dropped is None
    assert [r.category for r in log.records] == ["keep"]
    # Counters still see every emit, filtered or not.
    assert log.count("drop", "e2") == 1


def test_constructor_accepts_categories():
    from repro.sim.trace import TraceLog

    log = TraceLog(clock=lambda: 0.0, categories=["a", "b"])
    assert log.categories == frozenset({"a", "b"})
    log.emit("c", "x", "e")
    log.emit("a", "x", "e")
    assert [r.category for r in log.records] == ["a"]


class _Token:
    """A weak-referenceable marker: alive exactly as long as its record."""


def test_a_full_window_keeps_no_trimmed_record_alive():
    capacity = 8
    log = TraceLog(clock=lambda: 0.0, capacity=capacity)
    alive = weakref.WeakSet()
    most = 0
    for _ in range(3 * capacity):
        token = _Token()
        alive.add(token)
        log.emit("a", "x", "e", token=token)
        del token
        most = max(most, len(alive))
    # A window trimmed in bulk, behind a dead prefix, keeps up to 2 * capacity - 1.
    assert most == capacity
    assert {record.details["token"] for record in log.records} == set(alive)


def test_capacity_is_fixed_at_construction():
    log = TraceLog(clock=lambda: 0.0, capacity=3)
    with pytest.raises(AttributeError):
        log.capacity = 5
    for index in range(6):
        log.emit("a", "x", "e", i=index)
    assert [r.details["i"] for r in log.records] == [3, 4, 5]

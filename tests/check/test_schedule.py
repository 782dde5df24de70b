"""Unit tests for fault-schedule generation and serialization."""

import random

import pytest

from repro.check.schedule import (
    ALL_KINDS,
    ASYM_PARTITION,
    BURST_LOSS,
    CLOCK_SKEW,
    CORRUPT_EPOCH,
    CORRUPT_KINDS,
    CORRUPT_MEMBERSHIP,
    CORRUPT_SEQUENCE,
    CORRUPT_VIP_TABLE,
    CRASH,
    DAEMON_WEDGE,
    GRAY_KINDS,
    KINDS,
    LEAVE,
    NIC_FLAP,
    PARTITION,
    REPERTOIRES,
    SHAPES,
    SLOW_HOST,
    FaultEvent,
    FaultSchedule,
    generate_schedule,
    repertoire,
)
from repro.check.trial import make_spec, run_trial
from repro.sim.rng import RngRegistry


def test_generation_is_deterministic():
    a = generate_schedule(RngRegistry(3).stream("s"), n_hosts=4, n_events=10)
    b = generate_schedule(RngRegistry(3).stream("s"), n_hosts=4, n_events=10)
    assert a == b
    assert len(a) == 10


def test_different_seeds_give_different_schedules():
    a = generate_schedule(RngRegistry(3).stream("s"), n_hosts=4, n_events=10)
    b = generate_schedule(RngRegistry(4).stream("s"), n_hosts=4, n_events=10)
    assert a != b


def test_events_sorted_by_time_and_within_horizon():
    schedule = generate_schedule(
        RngRegistry(9).stream("s"), n_hosts=5, horizon=40.0, n_events=20
    )
    times = [event.time for event in schedule.events]
    assert times == sorted(times)
    assert all(0.0 < t < 40.0 for t in times)
    assert all(event.kind in KINDS for event in schedule.events)


def test_json_round_trip_is_exact():
    schedule = generate_schedule(RngRegistry(5).stream("s"), n_hosts=4, n_events=12)
    restored = FaultSchedule.from_json(schedule.to_json())
    assert restored == schedule
    # Floats must survive exactly — byte-identical replay depends on it.
    assert [e.time for e in restored.events] == [e.time for e in schedule.events]


def test_tail_time_covers_every_healing_action():
    schedule = FaultSchedule(
        [
            FaultEvent(CRASH, 5.0, host=0, duration=10.0),
            FaultEvent(CRASH, 12.0, host=1, duration=2.0),
        ],
        horizon=20.0,
    )
    assert schedule.tail_time() == 15.0


def test_replace_events_keeps_horizon():
    schedule = FaultSchedule([FaultEvent(CRASH, 5.0, host=0, duration=1.0)], 30.0)
    reduced = schedule.replace_events([])
    assert reduced.horizon == 30.0
    assert len(reduced) == 0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        FaultEvent("meteor", 1.0, host=0)


def test_partition_split_normalized_sorted():
    event = FaultEvent("partition", 1.0, duration=2.0, split=[3, 1, 2])
    assert event.split == (1, 2, 3)
    assert FaultEvent.from_dict(event.to_dict()) == event


# ----------------------------------------------------------------------
# gray-mix generation (docs/FAULTS.md)


def test_gray_generation_is_deterministic():
    a = generate_schedule(RngRegistry(3).stream("s"), n_hosts=4, n_events=20, gray=True)
    b = generate_schedule(RngRegistry(3).stream("s"), n_hosts=4, n_events=20, gray=True)
    assert a == b
    assert len(a) == 20


def test_gray_mix_draws_gray_kinds():
    schedule = generate_schedule(
        RngRegistry(8).stream("s"), n_hosts=4, n_events=40, gray=True
    )
    kinds = {event.kind for event in schedule.events}
    assert kinds & set(GRAY_KINDS)
    # The fail-stop backbone stays in the mix.
    assert kinds & set(KINDS)
    assert kinds <= set(ALL_KINDS)


def test_non_gray_generation_never_draws_gray_kinds():
    """gray=False must reproduce the historical repertoire exactly —
    existing campaign seeds depend on an unchanged draw sequence."""
    schedule = generate_schedule(
        RngRegistry(8).stream("s"), n_hosts=4, n_events=40, gray=False
    )
    assert all(event.kind in KINDS for event in schedule.events)
    assert all(event.param is None for event in schedule.events)
    # ...so their serialised form carries no "param" keys at all.
    assert all("param" not in e for e in schedule.to_dict()["events"])


def test_gray_params_survive_json_round_trip():
    schedule = generate_schedule(
        RngRegistry(5).stream("s"), n_hosts=4, n_events=30, gray=True
    )
    with_param = [e for e in schedule.events if e.param is not None]
    assert with_param  # burst loss / slowdown / skew magnitudes drawn
    restored = FaultSchedule.from_json(schedule.to_json())
    assert restored == schedule
    assert [e.param for e in restored.events] == [e.param for e in schedule.events]


def test_gray_event_params_are_bounded():
    schedule = generate_schedule(
        RngRegistry(13).stream("s"), n_hosts=5, n_events=60, gray=True
    )
    for event in schedule.events:
        if event.kind == BURST_LOSS:
            assert 0.5 <= event.param <= 0.95
        elif event.kind == SLOW_HOST:
            assert 1.5 <= event.param <= 3.0
        elif event.kind == CLOCK_SKEW:
            assert -5.0 <= event.param <= 5.0


# ----------------------------------------------------------------------
# corruption-mix generation (docs/FAULTS.md, "State corruption")


def test_corrupt_generation_is_deterministic():
    a = generate_schedule(
        RngRegistry(3).stream("s"), n_hosts=4, n_events=20, corrupt=True
    )
    b = generate_schedule(
        RngRegistry(3).stream("s"), n_hosts=4, n_events=20, corrupt=True
    )
    assert a == b
    assert len(a) == 20


def test_corrupt_mix_draws_all_regimes():
    schedule = generate_schedule(
        RngRegistry(8).stream("s"), n_hosts=4, n_events=60, corrupt=True
    )
    kinds = {event.kind for event in schedule.events}
    assert kinds & set(CORRUPT_KINDS)
    # The fail-stop and gray backbones stay in the mix.
    assert kinds & set(KINDS)
    assert kinds & set(GRAY_KINDS)
    assert kinds <= set(ALL_KINDS)


def test_corruption_events_are_instant_and_carry_no_param():
    """The concrete mutation is drawn at injection time from the
    injector's fault/corrupt stream; the schedule only carries
    (kind, time, host)."""
    schedule = generate_schedule(
        RngRegistry(8).stream("s"), n_hosts=4, n_events=60, corrupt=True
    )
    corruptions = [e for e in schedule.events if e.kind in CORRUPT_KINDS]
    assert corruptions
    for event in corruptions:
        assert event.duration == 0.0
        assert event.param is None
        assert event.host is not None
    restored = FaultSchedule.from_json(schedule.to_json())
    assert restored == schedule


def test_non_corrupt_generation_never_draws_corrupt_kinds():
    """gray and plain mixes must reproduce their historical sequences —
    existing campaign seeds depend on an unchanged draw order."""
    for gray in (False, True):
        schedule = generate_schedule(
            RngRegistry(8).stream("s"), n_hosts=4, n_events=40, gray=gray
        )
        assert not any(e.kind in CORRUPT_KINDS for e in schedule.events)


# ----------------------------------------------------------------------
# the repertoire table: one source for kinds, mixes and precedence


def test_kind_tuples_are_derived_from_the_table():
    assert KINDS == (NIC_FLAP, CRASH, PARTITION, LEAVE)
    assert GRAY_KINDS == (ASYM_PARTITION, BURST_LOSS, SLOW_HOST, CLOCK_SKEW, DAEMON_WEDGE)
    assert CORRUPT_KINDS == (
        CORRUPT_VIP_TABLE, CORRUPT_MEMBERSHIP, CORRUPT_SEQUENCE, CORRUPT_EPOCH,
    )
    assert set(ALL_KINDS) == set(SHAPES) and len(ALL_KINDS) == len(SHAPES)
    for row in REPERTOIRES.values():
        bounds = [bound for bound, _ in row.mix]
        assert bounds == sorted(bounds) and bounds[-1] == 1.0


def test_corrupt_beats_gray_beats_standard():
    assert repertoire() is REPERTOIRES["standard"]
    assert repertoire(gray=True) is REPERTOIRES["gray"]
    assert repertoire(corrupt=True) is REPERTOIRES["corrupt"]
    assert repertoire(gray=True, corrupt=True) is REPERTOIRES["corrupt"]
    assert repertoire(gray=True, stack="scale") is REPERTOIRES["scale"]
    assert [row.profile for row in REPERTOIRES.values()] == [
        "paper", "hardened", "stabilizing", "paper"]
    assert [row.grace for row in REPERTOIRES.values()] == [0.0, 1.5, 2.5, 3.0]


# The three mix functions as they stood before the table, verbatim: the
# table-driven generator must draw exactly what they drew.


def _reference_schedule(
    rng,
    n_hosts,
    horizon=40.0,
    n_events=8,
    min_duration=3.0,
    max_duration=10.0,
    gray=False,
    corrupt=False,
):
    if n_hosts < 2:
        raise ValueError("schedules need at least 2 hosts")
    events = []
    for _ in range(int(n_events)):
        time = rng.uniform(0.5, max(horizon - max_duration, 1.0))
        duration = rng.uniform(min_duration, max_duration)
        choice = rng.random()
        if corrupt:
            events.append(
                _corrupt_event(rng, n_hosts, time, duration, choice)
            )
        elif gray:
            events.append(
                _gray_event(rng, n_hosts, time, duration, choice)
            )
        elif choice < 0.35:
            events.append(
                FaultEvent(NIC_FLAP, time, host=rng.randrange(n_hosts), duration=duration)
            )
        elif choice < 0.60:
            events.append(
                FaultEvent(CRASH, time, host=rng.randrange(n_hosts), duration=duration)
            )
        elif choice < 0.85:
            size = rng.randint(1, n_hosts - 1)
            split = rng.sample(range(n_hosts), size)
            events.append(FaultEvent(PARTITION, time, duration=duration, split=split))
        else:
            events.append(
                FaultEvent(LEAVE, time, host=rng.randrange(n_hosts), duration=duration)
            )
    return FaultSchedule(events, horizon)


def _gray_event(rng, n_hosts, time, duration, choice):
    """One event of the gray mix (shared time/duration/choice draws)."""
    if choice < 0.12:
        return FaultEvent(NIC_FLAP, time, host=rng.randrange(n_hosts), duration=duration)
    if choice < 0.24:
        return FaultEvent(CRASH, time, host=rng.randrange(n_hosts), duration=duration)
    if choice < 0.34:
        size = rng.randint(1, n_hosts - 1)
        split = rng.sample(range(n_hosts), size)
        return FaultEvent(PARTITION, time, duration=duration, split=split)
    if choice < 0.52:
        # One-way partition: the split side goes deaf but keeps talking.
        size = rng.randint(1, n_hosts - 1)
        split = rng.sample(range(n_hosts), size)
        return FaultEvent(ASYM_PARTITION, time, duration=duration, split=split)
    if choice < 0.68:
        return FaultEvent(
            BURST_LOSS, time, duration=duration, param=rng.uniform(0.5, 0.95)
        )
    if choice < 0.80:
        return FaultEvent(
            SLOW_HOST,
            time,
            host=rng.randrange(n_hosts),
            duration=duration,
            param=rng.uniform(1.5, 3.0),
        )
    if choice < 0.90:
        return FaultEvent(
            CLOCK_SKEW,
            time,
            host=rng.randrange(n_hosts),
            duration=duration,
            param=rng.uniform(-5.0, 5.0),
        )
    return FaultEvent(DAEMON_WEDGE, time, host=rng.randrange(n_hosts), duration=duration)


def _corrupt_event(rng, n_hosts, time, duration, choice):
    """One event of the corruption mix (shared time/duration/choice draws).

    Keeps a thinned fail-stop + gray backbone (~54%) so corruption
    interacts with partitions, wedges and restarts rather than landing
    on a quiet cluster, then spends the rest on the four corruption
    kinds. Corruption events target a host index and heal instantly
    (the repair is the system's job).
    """
    if choice < 0.08:
        return FaultEvent(NIC_FLAP, time, host=rng.randrange(n_hosts), duration=duration)
    if choice < 0.16:
        return FaultEvent(CRASH, time, host=rng.randrange(n_hosts), duration=duration)
    if choice < 0.22:
        size = rng.randint(1, n_hosts - 1)
        split = rng.sample(range(n_hosts), size)
        return FaultEvent(PARTITION, time, duration=duration, split=split)
    if choice < 0.30:
        size = rng.randint(1, n_hosts - 1)
        split = rng.sample(range(n_hosts), size)
        return FaultEvent(ASYM_PARTITION, time, duration=duration, split=split)
    if choice < 0.38:
        return FaultEvent(
            BURST_LOSS, time, duration=duration, param=rng.uniform(0.5, 0.95)
        )
    if choice < 0.44:
        return FaultEvent(
            SLOW_HOST,
            time,
            host=rng.randrange(n_hosts),
            duration=duration,
            param=rng.uniform(1.5, 3.0),
        )
    if choice < 0.48:
        return FaultEvent(
            CLOCK_SKEW,
            time,
            host=rng.randrange(n_hosts),
            duration=duration,
            param=rng.uniform(-5.0, 5.0),
        )
    if choice < 0.54:
        return FaultEvent(
            DAEMON_WEDGE, time, host=rng.randrange(n_hosts), duration=duration
        )
    if choice < 0.66:
        return FaultEvent(CORRUPT_VIP_TABLE, time, host=rng.randrange(n_hosts))
    if choice < 0.78:
        return FaultEvent(CORRUPT_MEMBERSHIP, time, host=rng.randrange(n_hosts))
    if choice < 0.90:
        return FaultEvent(CORRUPT_SEQUENCE, time, host=rng.randrange(n_hosts))
    return FaultEvent(CORRUPT_EPOCH, time, host=rng.randrange(n_hosts))


@pytest.mark.parametrize("gray, corrupt", [(False, False), (True, False), (False, True),
                                           (True, True)])
def test_table_draws_what_the_hand_written_mixes_drew(gray, corrupt):
    for seed in range(500):
        for n_hosts in range(2, 9):
            table = generate_schedule(
                random.Random(seed), n_hosts, n_events=6, gray=gray, corrupt=corrupt
            )
            reference = _reference_schedule(
                random.Random(seed), n_hosts, n_events=6, gray=gray, corrupt=corrupt
            )
            assert table.to_dict() == reference.to_dict(), (seed, n_hosts)


# ----------------------------------------------------------------------
# malformed events fail at construction, not mid-trial


@pytest.mark.parametrize(
    "kind, fields",
    [
        (CRASH, {}),
        (CRASH, {"host": -1}),
        (CRASH, {"host": 1.5}),
        (SLOW_HOST, {"host": None, "param": 2.0}),
        (CORRUPT_EPOCH, {}),
        (PARTITION, {}),
        (PARTITION, {"split": []}),
        (ASYM_PARTITION, {"split": [-1, 2]}),
        (CRASH, {"host": 0, "time": -3.0}),
        (NIC_FLAP, {"host": 0, "duration": -2.0}),
        (BURST_LOSS, {"time": float("nan")}),
    ],
)
def test_malformed_event_raises_value_error(kind, fields):
    fields = dict(fields)
    time = fields.pop("time", 1.0)
    with pytest.raises(ValueError, match=kind):
        FaultEvent(kind, time, **fields)
    with pytest.raises(ValueError, match=kind):
        FaultEvent.from_dict(dict(fields, kind=kind, time=time))


def test_trial_rejects_a_host_past_the_cluster_before_building_it(monkeypatch):
    from repro.check import trial

    def no_cluster(*args, **kwargs):
        raise AssertionError("a cluster was built")

    monkeypatch.setattr(trial, "CheckCluster", no_cluster)
    spec = make_spec(1, FaultSchedule([FaultEvent(CRASH, 1.0, host=9, duration=2.0)], 10.0))
    with pytest.raises(ValueError, match="past the 4 servers"):
        run_trial(spec)

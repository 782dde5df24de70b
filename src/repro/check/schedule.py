"""Replayable fault schedules.

A schedule is a list of self-contained fault events against a cluster
of ``n`` servers, identified by host *index* so the same schedule can
be replayed against any freshly built cluster of the same size. Every
event carries its own healing action (a flap comes back up, a crashed
host reboots, a partition heals, a leaver rejoins) that reverts only its
own effect, so removing any subset of events (the shrinker's only
operation) always leaves a well-formed schedule.

Schedules serialize to plain JSON dicts; round-tripping through
:meth:`FaultSchedule.to_dict` / :meth:`FaultSchedule.from_dict` is
exact (Python floats survive JSON unchanged), which is what makes
byte-identical replay possible.
"""

import json

NIC_FLAP = "nic_flap"
CRASH = "crash"
PARTITION = "partition"
LEAVE = "leave"

# Gray-failure kinds (docs/FAULTS.md): components degrade without dying.
ASYM_PARTITION = "asym_partition"
BURST_LOSS = "burst_loss"
SLOW_HOST = "slow_host"
CLOCK_SKEW = "clock_skew"
DAEMON_WEDGE = "daemon_wedge"

# State-corruption kinds (docs/FAULTS.md, "State corruption"): protocol
# state itself is mutated; the exact mutation is drawn at injection time
# from the injector's dedicated ``fault/corrupt`` stream, so the
# schedule only carries (kind, time, host).
CORRUPT_VIP_TABLE = "corrupt_vip_table"
CORRUPT_MEMBERSHIP = "corrupt_membership"
CORRUPT_SEQUENCE = "corrupt_sequence"
CORRUPT_EPOCH = "corrupt_epoch"

KINDS = (NIC_FLAP, CRASH, PARTITION, LEAVE)
GRAY_KINDS = (ASYM_PARTITION, BURST_LOSS, SLOW_HOST, CLOCK_SKEW, DAEMON_WEDGE)
CORRUPT_KINDS = (
    CORRUPT_VIP_TABLE,
    CORRUPT_MEMBERSHIP,
    CORRUPT_SEQUENCE,
    CORRUPT_EPOCH,
)
ALL_KINDS = KINDS + GRAY_KINDS + CORRUPT_KINDS


class FaultEvent:
    """One self-healing fault: kind, onset time, target, duration.

    ``host`` is a server index (flap / crash / leave / slow / skew /
    wedge); ``split`` is a sorted tuple of server indices forming the
    broken-off partition group (for ``asym_partition``: the *deaf*
    side). ``duration`` is the time until the event's own healing
    action (nic_up, recover+restart, heal, rejoin, unslow, unskew,
    unwedge), which reverts this event's effect only. ``param`` is an
    optional fault magnitude — BAD-state loss probability for
    ``burst_loss``, timer stretch factor for ``slow_host``, clock offset
    for ``clock_skew`` — serialised only when set, so pre-gray schedules
    round-trip unchanged.
    """

    __slots__ = ("kind", "time", "host", "duration", "split", "param")

    def __init__(self, kind, time, host=None, duration=0.0, split=None, param=None):
        if kind not in ALL_KINDS:
            raise ValueError("unknown fault kind {!r}".format(kind))
        self.kind = kind
        self.time = float(time)
        self.host = None if host is None else int(host)
        self.duration = float(duration)
        self.split = None if split is None else tuple(sorted(int(i) for i in split))
        self.param = None if param is None else float(param)

    def to_dict(self):
        data = {"kind": self.kind, "time": self.time, "duration": self.duration}
        if self.host is not None:
            data["host"] = self.host
        if self.split is not None:
            data["split"] = list(self.split)
        if self.param is not None:
            data["param"] = self.param
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["kind"],
            data["time"],
            host=data.get("host"),
            duration=data.get("duration", 0.0),
            split=data.get("split"),
            param=data.get("param"),
        )

    def __eq__(self, other):
        return isinstance(other, FaultEvent) and self.to_dict() == other.to_dict()

    def __repr__(self):
        target = self.host if self.host is not None else list(self.split or ())
        return "FaultEvent({} t={:.3f} target={} dur={:.3f})".format(
            self.kind, self.time, target, self.duration
        )


class FaultSchedule:
    """An ordered list of fault events plus the observation horizon."""

    __slots__ = ("events", "horizon")

    def __init__(self, events, horizon):
        self.events = sorted(
            (e for e in events), key=lambda e: (e.time, e.kind, e.host or -1)
        )
        self.horizon = float(horizon)

    def tail_time(self):
        """Simulated time by which every healing action has fired."""
        return max((e.time + e.duration for e in self.events), default=0.0)

    def replace_events(self, events):
        """A new schedule with the same horizon and different events."""
        return FaultSchedule(events, self.horizon)

    def to_dict(self):
        return {
            "horizon": self.horizon,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            [FaultEvent.from_dict(e) for e in data["events"]], data["horizon"]
        )

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def __len__(self):
        return len(self.events)

    def __eq__(self, other):
        return isinstance(other, FaultSchedule) and self.to_dict() == other.to_dict()

    def __repr__(self):
        return "FaultSchedule({} events, horizon={})".format(
            len(self.events), self.horizon
        )


def generate_schedule(
    rng,
    n_hosts,
    horizon=40.0,
    n_events=8,
    min_duration=3.0,
    max_duration=10.0,
    gray=False,
    corrupt=False,
):
    """Draw a random schedule from ``rng`` (a ``random.Random`` stream).

    The mix mirrors the chaos soak's repertoire: interface flaps are
    the paper's §6 fault and the most common, crashes exercise
    reboot-and-restart, partitions exercise component splits/merges,
    and graceful leaves exercise the lightweight voluntary path. All
    draws come from the single supplied stream, so the schedule is a
    pure function of the stream's seed.

    With ``gray=True`` the mix shifts toward the gray repertoire
    (one-way partitions, burst loss, slow hosts, clock skew, wedged
    daemons) while keeping a fail-stop backbone, so campaigns exercise
    the interaction of both regimes. ``gray=False`` draws exactly the
    historical sequence — existing campaign seeds reproduce their
    schedules bit-for-bit.

    With ``corrupt=True`` the mix adds the four state-corruption kinds
    on top of a thinned fail-stop + gray backbone. Corruption events
    are instantaneous (``duration=0.0``) — recovery is the cluster's
    job, not the schedule's — and carry no param: the concrete mutation
    is drawn at injection time from the injector's ``fault/corrupt``
    stream. ``corrupt`` takes precedence over ``gray``.
    """
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

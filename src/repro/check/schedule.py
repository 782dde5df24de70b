"""Replayable fault schedules, and the one table of what they may hold.

A schedule is a list of self-contained fault events against a cluster
of ``n`` servers, identified by host *index* so the same schedule can
be replayed against any freshly built cluster of the same size. Every
event carries its own healing action (a flap comes back up, a crashed
host reboots, a partition heals, a leaver rejoins) that reverts only its
own effect, so removing any subset of events (the shrinker's only
operation) always leaves a well-formed schedule.

The fault vocabulary is written once, here, in two tables. :data:`SHAPES`
says what each kind targets (a host index, a split, or nothing), the
range its ``param`` is drawn from, and whether it heals instantly.
:data:`REPERTOIRES` gives each campaign (``standard``, ``gray``,
``corrupt`` on the faithful stack, ``scale`` on the scale stack) its
mix of kinds, the hardening profile its cluster runs and the grace its
coverage audit allows; :func:`repertoire` picks the row for a stack and
a pair of campaign flags. :func:`generate_schedule` draws a faithful
schedule, :func:`scale_schedule` a scale one.

Schedules serialize to plain JSON dicts; round-tripping through
:meth:`FaultSchedule.to_dict` / :meth:`FaultSchedule.from_dict` is
exact (Python floats survive JSON unchanged), which is what makes
byte-identical replay possible.
"""

import json
import math
from collections import Counter, namedtuple

from repro.sim.rng import RngRegistry

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

#: What a kind targets: one server index, or a split (a set of server
#: indices breaking off; for ``asym_partition`` the *deaf* side).
HOST = "host"
SPLIT = "split"

#: ``target`` is HOST, SPLIT or None (the whole LAN); ``param`` the
#: (low, high) range a magnitude is drawn from, or None; an ``instant``
#: kind heals at once (``duration=0.0``), its repair is the cluster's job.
Shape = namedtuple("Shape", "target param instant", defaults=(None, False))

SHAPES = {
    NIC_FLAP: Shape(HOST),
    CRASH: Shape(HOST),
    PARTITION: Shape(SPLIT),
    LEAVE: Shape(HOST),
    ASYM_PARTITION: Shape(SPLIT),
    BURST_LOSS: Shape(None, (0.5, 0.95)),  # BAD-state loss probability
    SLOW_HOST: Shape(HOST, (1.5, 3.0)),  # timer stretch factor
    CLOCK_SKEW: Shape(HOST, (-5.0, 5.0)),  # clock offset, seconds
    DAEMON_WEDGE: Shape(HOST),
    CORRUPT_VIP_TABLE: Shape(HOST, instant=True),
    CORRUPT_MEMBERSHIP: Shape(HOST, instant=True),
    CORRUPT_SEQUENCE: Shape(HOST, instant=True),
    CORRUPT_EPOCH: Shape(HOST, instant=True),
}

#: ``mix`` is ``(bound, kind)`` pairs: a draw of ``choice`` below
#: ``bound`` (and not below the bound before it) picks ``kind``.
#: ``profile`` names the cluster's hardening (``repro.stabilization``);
#: ``grace`` is how long (simulated seconds) a view-relative violation
#: interval must last before the trial fails.
Repertoire = namedtuple("Repertoire", "mix profile grace")

REPERTOIRES = {
    # The chaos soak's mix: interface flaps are the paper's §6 fault and
    # the most common, crashes exercise reboot-and-restart, partitions
    # component splits/merges, leaves the voluntary path. Fail-stop
    # trials fail on any unexcused interval.
    "standard": Repertoire(
        ((0.35, NIC_FLAP), (0.60, CRASH), (0.85, PARTITION), (1.0, LEAVE)), "paper", 0.0
    ),
    # The gray kinds on a fail-stop backbone, against the hardened
    # cluster (K-miss detection, ARP retries and conflict resolution,
    # daemon supervisors). Gray faults legitimately open bounded windows
    # (a singleton that handed addresses back in ARP conflict repair and
    # was then isolated needs one detection + regather cycle), so the
    # grace is twice the worst legitimate reconfiguration of the
    # hardened fast config (K-miss ~0.7 s plus a regather).
    "gray": Repertoire(
        ((0.12, NIC_FLAP), (0.24, CRASH), (0.34, PARTITION), (0.52, ASYM_PARTITION),
         (0.68, BURST_LOSS), (0.80, SLOW_HOST), (0.90, CLOCK_SKEW), (1.0, DAEMON_WEDGE)),
        "hardened",
        1.5,
    ),
    # The four corruption kinds on a thinned fail-stop + gray backbone
    # (~54%), so corruption meets partitions, wedges and restarts rather
    # than a quiet cluster. The cluster adds periodic self-stabilization
    # audits to every gray hardening; a corrupted table or view is only
    # found at the next audit tick (0.5 s) and its repair may need an ARP
    # round or a regather on top, hence the longer grace.
    "corrupt": Repertoire(
        ((0.08, NIC_FLAP), (0.16, CRASH), (0.22, PARTITION), (0.30, ASYM_PARTITION),
         (0.38, BURST_LOSS), (0.44, SLOW_HOST), (0.48, CLOCK_SKEW), (0.54, DAEMON_WEDGE),
         (0.66, CORRUPT_VIP_TABLE), (0.78, CORRUPT_MEMBERSHIP), (0.90, CORRUPT_SEQUENCE),
         (1.0, CORRUPT_EPOCH)),
        "stabilizing",
        2.5,
    ),
    # The scale stack knows fail-stop only: crash/revive pairs drawn by
    # scale_schedule. Inside a view every member holds, a hole or a
    # duplicate that outlasts the grace is a bug.
    "scale": Repertoire(((1.0, CRASH),), "paper", 3.0),
}


def repertoire(gray=False, corrupt=False, stack="faithful"):
    """The row for a stack and a pair of flags: corrupt beats gray beats standard."""
    if stack == "scale":
        return REPERTOIRES["scale"]
    return REPERTOIRES["corrupt" if corrupt else "gray" if gray else "standard"]


def _first_drawn(name, *earlier):
    """The kinds row ``name`` mixes in that no ``earlier`` tuple holds."""
    seen = set().union(*earlier)
    return tuple(kind for _, kind in REPERTOIRES[name].mix if kind not in seen)


KINDS = _first_drawn("standard")
GRAY_KINDS = _first_drawn("gray", KINDS)
CORRUPT_KINDS = _first_drawn("corrupt", KINDS, GRAY_KINDS)
ALL_KINDS = KINDS + GRAY_KINDS + CORRUPT_KINDS


class FaultEvent:
    """One self-healing fault: kind, onset time, target, duration.

    ``host`` is a server index and ``split`` a sorted tuple of server
    indices, as the kind's :data:`SHAPES` row says. ``duration`` is the
    time until the event's own healing action (nic_up, recover+restart,
    heal, rejoin, unslow, unskew, unwedge), which reverts this event's
    effect only. ``param`` is an optional fault magnitude, serialised
    only when set, so pre-gray schedules round-trip unchanged. An event
    whose shape is wrong raises ``ValueError`` here rather than
    mid-trial.
    """

    __slots__ = ("kind", "time", "host", "duration", "split", "param")

    def __init__(self, kind, time, host=None, duration=0.0, split=None, param=None):
        if kind not in SHAPES:
            raise ValueError("unknown fault kind {!r}".format(kind))
        target = SHAPES[kind].target
        if target == HOST and not (isinstance(host, int) and host >= 0):
            raise ValueError("{} needs a host index >= 0, got {!r}".format(kind, host))
        if target == SPLIT and not (split and min(split) >= 0):
            raise ValueError("{} needs a non-empty split of indices >= 0, got {!r}".format(
                kind, split))
        self.kind = kind
        self.time = float(time)
        self.host = None if host is None else int(host)
        self.duration = float(duration)
        self.split = None if split is None else tuple(sorted(int(i) for i in split))
        self.param = None if param is None else float(param)
        if not (0.0 <= self.time < math.inf and 0.0 <= self.duration < math.inf):  # NaN fails too
            raise ValueError("{} needs finite time and duration >= 0, got {} and {}".format(
                kind, self.time, self.duration))

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
        self.events = sorted(events, key=lambda e: (e.time, e.kind, e.host or -1))
        self.horizon = float(horizon)
        if not 0.0 <= self.horizon < math.inf:  # NaN fails too
            raise ValueError("a schedule needs a finite horizon >= 0, got {}".format(horizon))

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
        return cls([FaultEvent.from_dict(e) for e in data["events"]], data["horizon"])

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

    Each event draws its onset, duration and ``choice``; the mix of the
    flags' :func:`repertoire` row turns ``choice`` into a kind, and the
    kind's :data:`SHAPES` row says which target and param to draw next.
    Instant kinds (the corruptions) still draw a duration and drop it:
    their concrete mutation is drawn at injection time from the
    injector's ``fault/corrupt`` stream. All draws come from the single
    supplied stream, so the schedule is a pure function of its seed.
    """
    if n_hosts < 2:
        raise ValueError("schedules need at least 2 hosts")
    mix = repertoire(gray, corrupt).mix
    events = []
    for _ in range(int(n_events)):
        time = rng.uniform(0.5, max(horizon - max_duration, 1.0))
        duration = rng.uniform(min_duration, max_duration)
        choice = rng.random()
        kind = next(kind for bound, kind in mix if choice < bound)
        shape = SHAPES[kind]
        host = split = param = None
        if shape.target == HOST:
            host = rng.randrange(n_hosts)
        elif shape.target == SPLIT:
            size = rng.randint(1, n_hosts - 1)
            split = rng.sample(range(n_hosts), size)
        if shape.param is not None:
            param = rng.uniform(*shape.param)
        if shape.instant:
            duration = 0.0
        events.append(
            FaultEvent(kind, time, host=host, duration=duration, split=split, param=param)
        )
    return FaultSchedule(events, horizon)


def scale_schedule(seed, n_hosts, segment_size, n_faults, spacing=4.0, revive_after=6.0,
                   horizon=None):
    """The ``scale`` row's schedule: ``n_faults`` crashes ``spacing`` apart.

    Crash ``k`` strikes at ``spacing * (k + 1)`` and its host revives
    ``revive_after`` later; ``horizon`` defaults to the last revive.
    Victims are distinct and at most half of any segment, so the
    segment's leader succession always has a survivor. They come from
    ``seed``'s ``scale-victims`` stream, so the schedule is a pure
    function of its arguments.
    """
    rng = RngRegistry(seed).stream("scale-victims")
    cap = max(1, segment_size // 2)
    victims, per_segment = [], Counter()
    candidates = list(range(n_hosts))
    while len(victims) < n_faults and candidates:
        index = candidates.pop(rng.randrange(len(candidates)))
        if per_segment[index // segment_size] < cap:
            per_segment[index // segment_size] += 1
            victims.append(index)
    events = [
        FaultEvent(CRASH, spacing * (order + 1), host=index, duration=revive_after)
        for order, index in enumerate(victims)
    ]
    if horizon is None:
        horizon = spacing * len(victims) + revive_after
    return FaultSchedule(events, horizon)

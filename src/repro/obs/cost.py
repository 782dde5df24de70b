"""``repro observe --cost``: what a simulated second costs, by kind of event.

A run is made plain, then again from the same seed with every event
timed. A row is a timer by name (up to any ``:``), a frame
arrival as ``recv <payload class>`` (read from its UDP datagram), or a
callback's qualified name. The table is printed, never put in an
artifact; the meter wraps :meth:`Event.fire` from outside, so
``Scheduler.run`` has no statement for it. The footer is its overhead:
metered over plain wall of the same simulated seconds.

``--cost --shards N`` is the kernel's report: a cell world on N forked
workers, one row per shard. The meter wraps each world as the factory
builds it, so the kernel has no statement for it either; each worker's
row comes back in place of its artifacts.
"""

import pickle
import time
from contextlib import contextmanager, nullcontext

from repro.net.lan import Lan
from repro.net.nic import Nic
from repro.net.packet import IpPacket, UdpDatagram
from repro.sim.events import Event
from repro.sim.timers import Timer

clock = time.perf_counter  # a wall-side meter, never in an artifact


def _received(frame):
    packet = frame.payload
    if type(packet) is IpPacket and type(packet.payload) is UdpDatagram:
        packet = packet.payload.payload
    return "recv " + type(packet).__name__


def event_kind(callback, args):
    """The report row of an event that calls ``callback(*args)`` (a partial: its function's)."""
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Timer) and owner.name:
        return owner.name.split(":")[0]
    if getattr(callback, "__func__", None) is Nic.deliver or callback is Lan._deliver_batch:
        return _received(args[0])
    return getattr(callback, "func", callback).__qualname__


@contextmanager
def metered(table):
    """Add each event fired in the block to ``table[kind] = [events, wall s]``."""
    plain = Event.fire

    def fire(event):
        if event.cancelled or event.callback is None:
            return
        kind = event_kind(event.callback, event.args)
        started = clock()
        plain(event)
        entry = table.setdefault(kind, [0, 0.0])
        entry[0] += 1
        entry[1] += clock() - started

    Event.fire = fire
    try:
        yield table
    finally:
        Event.fire = plain


def measure(run):
    """``(table, sim seconds, metered wall, plain wall)`` of ``run``, or None.

    ``run(meter)`` builds one scenario, runs the seconds to be costed
    inside the context manager ``meter`` and returns their ``(simulated
    seconds, wall seconds)``, or None when the run could not be made. It
    is called plain first, then metered.
    """
    plain = run(nullcontext())
    if plain is None:
        return None
    table = {}
    seconds, wall = run(metered(table))
    return table, seconds, wall, plain[1]


def render(table, seconds, metered_wall, plain_wall, title):
    """One row per kind, heaviest first, then the total and the overhead."""
    total = sum(wall for _events, wall in table.values()) or 1.0
    lines = [title, "{:<32} {:>10} {:>8} {:>10} {:>7}".format(
        "kind", "ev/sim-s", "us/ev", "ms/sim-s", "share")]
    rows = sorted(table.items(), key=lambda item: (-item[1][1], item[0]))
    rows.append(("total", (sum(events for events, _wall in table.values()), total)))
    for kind, (events, wall) in rows:
        lines.append("{:<32} {:>10.1f} {:>8.2f} {:>10.3f} {:>6.1f}%".format(
            kind[:32], events / seconds, 1e6 * wall / max(events, 1),
            1e3 * wall / seconds, 100.0 * wall / total))
    lines.append("meter overhead: {:.2f}x ({:.3f} s metered / {:.3f} s plain wall)".format(
        metered_wall / plain_wall, metered_wall, plain_wall))
    return "\n".join(lines)


def scale_run(hosts, seconds, seed):
    """A ``measure`` run: ``seconds`` of an n-host scale cluster after ``settle()``."""
    from repro.apps.scalecluster import ScaleClusterScenario

    def run(meter):
        scenario = ScaleClusterScenario(seed=seed, n_hosts=hosts, n_vips=4 * hosts)
        scenario.start()
        if not scenario.settle():
            return None
        with meter:
            started = clock()
            scenario.sim.run_for(seconds)
            return seconds, clock() - started

    return run


def observe_run(**options):
    """A ``measure`` run: the whole ``repro observe`` run with ``options``."""
    from repro.obs.observe import run_observation

    def run(meter):
        with meter:
            started = clock()
            observed = run_observation(**options)
            wall = clock() - started
        return None if observed is None else (observed[0].sim.now, wall)

    return run


#: A shard's row: wall building its world and advancing it, the events
#: it fired, and the bytes its artifacts take pickled for the parent.
SHARD_COLUMNS = ("build_s", "advance_s", "events", "bytes")


class MeteredWorld:
    """A kernel world whose protocol calls fill ``row`` (see ``SHARD_COLUMNS``)."""

    def __init__(self, world, row):
        self._world = world
        self._row = row

    def advance(self, until):
        scheduler = self._world.sim.scheduler
        fired = scheduler.events_fired
        started = clock()
        self._world.advance(until)
        self._row["advance_s"] += clock() - started
        self._row["events"] += scheduler.events_fired - fired

    def artifacts(self):
        self._row["bytes"] = len(pickle.dumps(self._world.artifacts(), pickle.HIGHEST_PROTOCOL))
        return self._row


def shard_costs(hosts, shards, seconds, seed):
    """``(rows, run wall)``: ``seconds`` from boot of an n-host cell world on ``shards`` workers."""
    from repro.apps.scalecluster import ShardedScaleScenario
    from repro.sim.shard import run_shards

    scenario = ShardedScaleScenario(
        shards=shards, seed=seed, n_hosts=hosts, n_vips=4 * hosts, horizon=seconds
    )

    def factory(spec, shard):
        row = dict.fromkeys(SHARD_COLUMNS, 0)
        started = clock()
        world = scenario.FACTORY(spec, shard)
        row["build_s"] = clock() - started
        return MeteredWorld(world, row)

    started = clock()
    rows, _ = run_shards(scenario.plan, factory, scenario.spec, seconds, workers=shards)
    return rows, clock() - started


def render_shards(rows, wall, title):
    """One row per shard, then each timed column's share of the run's wall."""
    lines = [title, "{:>5} {:>8} {:>10} {:>10} {:>10}".format(
        "shard", "build_s", "advance_s", "events", "bytes")]
    for shard, row in enumerate(rows):
        lines.append("{:>5} {:>8.3f} {:>10.3f} {:>10} {:>10}".format(
            shard, row["build_s"], row["advance_s"], row["events"], row["bytes"]))
    shares = [sum(row[column] for row in rows) / len(rows) / wall
              for column in ("build_s", "advance_s")]
    lines.append("run wall {:.3f} s: build {:.1%}, advance {:.1%}, "
                 "the rest {:.1%} (mean over shards)".format(wall, *shares, 1.0 - sum(shares)))
    return "\n".join(lines)

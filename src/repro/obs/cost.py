"""``repro observe --cost``: what a simulated second costs, by kind of event.

A run is made plain, then again from the same seed with every event
timed. A row is a timer by name (``fd:<peer>`` folds to ``fd``), a frame
arrival as ``recv <payload class>`` (read from its UDP datagram), or a
callback's qualified name. The table is printed, never put in an
artifact; the meter wraps :meth:`Event.fire` from outside, so
``Scheduler.run`` has no statement for it. The footer is its overhead:
metered over plain wall of the same simulated seconds.

``--cost --shards N`` is the kernel's report: a cell world on N forked
workers, one row per shard. The meter wraps each world as the factory
builds it and :class:`~repro.sim.shard.pool.PeerExchange` before the
fork, so the kernel has no statement for it either; each worker's row
comes back in place of its artifacts.
"""

import time
from contextlib import contextmanager, nullcontext

from repro.net.lan import Lan
from repro.net.nic import Nic
from repro.net.packet import IpPacket, UdpDatagram
from repro.sim.events import Event
from repro.sim.timers import PeriodicTimer, Timer

clock = time.perf_counter  # repro: allow det001 -- a wall-side meter, never in an artifact


def _received(frame):
    packet = frame.payload
    if type(packet) is IpPacket and type(packet.payload) is UdpDatagram:
        packet = packet.payload.payload
    return "recv " + type(packet).__name__


def event_kind(callback, args):
    """The report row of an event that calls ``callback(*args)``."""
    owner = getattr(callback, "__self__", None)
    if type(owner) in (Timer, PeriodicTimer) and owner.name:
        return owner.name.split(":")[0]
    if getattr(callback, "__func__", None) is Nic.deliver or callback is Lan._deliver_batch:
        return _received(args[0])
    return callback.__qualname__


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


#: A shard's row: wall building its world, its epochs, wall in
#: ``advance`` and in the barrier swap, envelopes drained from and
#: injected into its world, bytes it pickled for its peers, and the
#: deepest event queue it entered an epoch with.
SHARD_COLUMNS = ("build_s", "epochs", "advance_s", "exchange_s", "out", "in", "bytes", "queue")


class MeteredWorld:
    """A kernel world whose protocol calls fill ``row`` (see ``SHARD_COLUMNS``)."""

    def __init__(self, world, row):
        self._world = world
        self._row = row

    def next_event_time(self):
        return self._world.next_event_time()

    def inject(self, envelopes):
        self._row["in"] += len(envelopes)
        self._world.inject(envelopes)

    def advance(self, until, inclusive):
        row = self._row
        row["epochs"] += 1
        row["queue"] = max(row["queue"], self._world.sim.scheduler.pending_count)
        started = clock()
        self._world.advance(until, inclusive)
        row["advance_s"] += clock() - started

    def drain_outbound(self):
        out = self._world.drain_outbound()
        self._row["out"] += len(out)
        return out

    def artifacts(self):
        return self._row


@contextmanager
def metered_exchange(rows):
    """Add each worker's barrier wall and pickled bytes to ``rows[its shard]``."""
    from repro.sim.shard.pool import PeerExchange

    call, swap = PeerExchange.__call__, PeerExchange._swap

    def timed(exchange, inboxes, outbound, bound):
        started = clock()
        earliest = call(exchange, inboxes, outbound, bound)
        rows[exchange.shard]["exchange_s"] += clock() - started
        return earliest

    def counted(exchange, payloads):
        rows[exchange.shard]["bytes"] += sum(map(len, payloads.values()))
        return swap(exchange, payloads)

    PeerExchange.__call__, PeerExchange._swap = timed, counted
    try:
        yield rows
    finally:
        PeerExchange.__call__, PeerExchange._swap = call, swap


def shard_costs(hosts, shards, seconds, seed):
    """``(rows, run wall)``: ``seconds`` from boot of an n-host cell world on ``shards`` workers."""
    from repro.apps.scalecluster import ShardedScaleScenario
    from repro.sim.shard.kernel import ShardedKernel

    scenario = ShardedScaleScenario(
        shards=shards, seed=seed, n_hosts=hosts, n_vips=4 * hosts, horizon=seconds
    )
    rows = {}

    def factory(spec, shard):
        row = rows[shard] = dict.fromkeys(SHARD_COLUMNS, 0)
        started = clock()
        world = scenario.FACTORY(spec, shard)
        row["build_s"] = clock() - started
        return MeteredWorld(world, row)

    kernel = ShardedKernel(scenario.plan, factory, scenario.spec, workers=shards)
    with metered_exchange(rows):
        try:
            kernel.start()
            started = clock()
            kernel.run(seconds)
            wall = clock() - started
            return kernel.collect(), wall
        finally:
            kernel.close()


def render_shards(rows, wall, title):
    """One row per shard, then each timed column's share of the run's wall."""
    lines = [title, "{:>5} {:>8} {:>7} {:>10} {:>11} {:>7} {:>7} {:>9} {:>9}".format(
        "shard", "build_s", "epochs", "advance_s", "exchange_s", "out/ep", "in/ep", "bytes/ep",
        "max_queue")]
    for shard, row in enumerate(rows):
        epochs = max(row["epochs"], 1)
        lines.append(
            "{:>5} {:>8.3f} {:>7} {:>10.3f} {:>11.3f} {:>7.2f} {:>7.2f} {:>9.1f} {:>9}".format(
                shard, row["build_s"], row["epochs"], row["advance_s"], row["exchange_s"],
                row["out"] / epochs, row["in"] / epochs, row["bytes"] / epochs, row["queue"]))
    shares = [sum(row[column] for row in rows) / len(rows) / wall
              for column in ("build_s", "advance_s", "exchange_s")]
    lines.append("run wall {:.3f} s: build {:.1%}, advance {:.1%}, exchange {:.1%}, "
                 "the rest {:.1%} (mean over shards)".format(wall, *shares, 1.0 - sum(shares)))
    return "\n".join(lines)

"""The epoch-barrier kernel driving sharded simulation worlds.

Conservative-lookahead PDES, barrier-synchronous flavour: with ``L``
the minimum inter-cell link latency (the *lookahead*), a frame sent at
time ``s`` cannot affect any other cell before ``s + L``. The kernel
therefore advances all worlds in lock-step epochs::

    B_{k+1} = min(horizon, max(B_k, E_k) + L)

where ``E_k`` is the earliest pending activity across every world —
the minimum over per-world next-event times and not-yet-injected
envelope delivery times. Any send during epoch ``k`` happens inside an
event at ``s >= E_k``, so its delivery lands at ``s + L >= B_{k+1}``:
collecting outbound envelopes at the barrier and injecting them before
the next epoch never delivers into the past.

Epochs run the half-open interval ``[B_k, B_{k+1})`` (the scheduler's
``inclusive=False`` mode) so a frame delivering exactly at a barrier
fires in the epoch that starts there; the final epoch closes inclusive
at the horizon, matching a plain ``run(until=horizon)``.

Determinism: barriers are computed from a *global* minimum, so the
epoch sequence — and with it the barrier-relative order in which
deliveries are scheduled — is identical for every shard grouping,
including the one-world serial run. Combined with envelope sort order
(:func:`repro.net.partition.envelope_key`) this makes same-instant
event ties resolve identically everywhere, which is what the parity
suite pins down to the byte.

Worlds are built by a plain callable ``factory(params, shard_id)`` —
a forked worker inherits it and builds its world after the fork instead
of unpickling a live object graph — and must provide the small
duck-typed protocol :class:`InProcessRunner` calls:
``next_event_time()``, ``inject(envelopes)``,
``advance(until, inclusive)``, ``drain_outbound()``, ``artifacts()``.

A run may be split into many :meth:`ShardedKernel.run` calls with live
work scheduled in between: envelopes still in flight at the end of one
call wait in the inbox of the shard they are bound for, and each call
starts by re-reading every world's next event and outbound queue, so
what a call sees does not depend on where the previous one stopped.
"""

from repro.net.partition import envelope_key
from repro.sim.errors import SchedulerError
from repro.sim.simulation import Simulation


class InProcessRunner:
    """The epoch step for the worlds inside the calling process.

    The in-process kernel builds one over every shard, and its exchange
    routes envelopes between their inboxes here. A forked worker builds
    one over its own shard and passes ``exchange``, the swap with its
    peers (:class:`repro.sim.shard.pool.PeerExchange`). Either way this
    is the only code that calls the world protocol, and the only code
    that computes a barrier.

    ``exchange(inboxes, outbound, bound)`` puts each envelope of
    ``outbound`` in the inbox of the shard it is bound for and returns
    the minimum of ``bound`` over every shard, so every process computes
    the same barriers from the same inputs.
    """

    def __init__(self, factory, params, shard_ids, plan, exchange=None):
        self._worlds = [factory(params, shard_id) for shard_id in shard_ids]
        #: Per world, the envelopes bound for it not yet injected.
        self.inboxes = [[] for _ in self._worlds]
        self._shard_of = plan.shard_of
        self._lookahead = plan.lookahead
        self._exchange = self._route if exchange is None else exchange
        self.now = 0.0

    def _route(self, inboxes, outbound, bound):
        shard_of = self._shard_of
        for envelope in outbound:
            inboxes[shard_of(envelope[3])].append(envelope)
        return bound

    def run_to(self, until):
        """Step every world through lookahead epochs to ``until``: ``(now, epochs)``."""
        worlds, inboxes, exchange = self._worlds, self.inboxes, self._exchange
        lookahead, now, epochs = self._lookahead, self.now, 0
        while True:
            # This shard's lower bound: its next event, and every
            # delivery it holds or has just sent. Work scheduled since
            # the last barrier (a live fault, say) moved the first and
            # may have sent, so both are read afresh.
            outbound, times = [], []
            for world, inbox in zip(worlds, inboxes):
                outbound += world.drain_outbound()
                next_time = world.next_event_time()
                if next_time is not None:
                    times.append(next_time)
                times += [envelope[0] for envelope in inbox]
            times += [envelope[0] for envelope in outbound]
            earliest = exchange(inboxes, outbound, min(times, default=None))
            if now >= until:
                break
            target = until if earliest is None else max(now, earliest) + lookahead
            inclusive = target >= until
            if inclusive:
                target = until
            for world, inbox in zip(worlds, inboxes):
                batch = sorted(inbox, key=envelope_key)
                inbox.clear()
                world.inject(batch)
                world.advance(target, inclusive)
            now = target
            epochs += 1
        self.now = now
        return now, epochs

    def collect(self):
        return [world.artifacts() for world in self._worlds]

    def close(self):
        pass


class ShardedKernel:
    """Drives one sharded run: build, epoch loop, artifact collection.

    ``workers`` counts worker *processes*: 0 (or a single-shard plan)
    runs every world in-process — the serial run, byte-identical by
    construction — while ``workers >= 2`` forks one worker per shard
    (capped at the shard count), which needs the ``fork`` start method.
    """

    def __init__(self, plan, factory, params, workers=0):
        self.plan = plan
        self.factory = factory
        self.params = params
        self.workers_requested = int(workers)
        self.workers = 0
        self.now = 0.0
        self.epochs = 0
        self._runner = None

    def start(self):
        """Build every world (forking workers first when parallel)."""
        if self._runner is not None:
            raise RuntimeError("kernel already started")
        shard_ids = list(self.plan.shards())
        if self.workers_requested >= 2 and self.plan.n_shards >= 2:
            from repro.sim.shard.pool import WorkerPoolRunner

            self._runner = WorkerPoolRunner(self.factory, self.params, shard_ids, self.plan)
            self.workers = len(shard_ids)
        else:
            self._runner = InProcessRunner(self.factory, self.params, shard_ids, self.plan)
            #: Each shard's envelopes in flight between calls.
            self._pending = self._runner.inboxes
        return self

    def run(self, until):
        """Advance every world to ``until`` through lookahead epochs."""
        if self._runner is None:
            self.start()
        self.now, epochs = self._runner.run_to(float(until))
        self.epochs += epochs
        return self.now

    def collect(self):
        """Per-shard artifact dicts, in shard order."""
        return self._runner.collect()

    def close(self):
        """Shut worker processes down (no-op for in-process runs)."""
        if self._runner is not None:
            self._runner.close()
            self._runner = None


class KernelSimulation(Simulation):
    """A world's Simulation that advances only through its kernel's epochs.

    ``run`` and ``run_for`` step :attr:`kernel` — for a world holding
    every cell, a one-world :class:`ShardedKernel` — so no run reaches
    the scheduler around the barriers. A world built for one shard has
    no kernel of its own: the kernel that built it runs it.
    """

    kernel = None

    def run(self, until=None, max_events=None):
        """Advance to ``until`` through the kernel; returns the events fired."""
        if self.kernel is None or until is None or max_events is not None:
            raise SchedulerError("a sharded world runs to a time, through its own kernel")
        fired = self.scheduler.events_fired
        self.kernel.run(until)
        return self.scheduler.events_fired - fired

    def run_for(self, duration, max_events=None):
        """Advance by ``duration`` seconds through the kernel."""
        return self.run(self.now + duration, max_events)

"""The sharded run in isolation: plan, worlds, workers, determinism.

A deliberately tiny "toy world" — cells ticking on their own schedulers
and receiving their own pings — exercises building, advancing and
collecting worlds without any of the cluster machinery, so a failure
here localizes to the run itself. The headline assertion is its
contract: the merged event log is identical under every shard
grouping, including the forked worker pool.
"""

import gc
import multiprocessing
import os
import signal
import time

import pytest

from repro.net.partition import ShardPlan
from repro.sim.scheduler import Scheduler
from repro.sim.shard import run_shards
from repro.sim.shard.pool import fork_available

#: How long a ping takes to come back to the cell that sent it.
LATENCY = 0.05


class ToyWorld:
    """Minimal world: per-cell ticks + their own pings.

    Every cell ticks ``rounds`` times; each tick sends the cell a ping,
    received ``LATENCY`` later. Cells log ticks and receipts with their
    virtual timestamps; the merged log is the determinism witness.
    ``params`` can break one shard's build, stall its advance, or have
    its forked worker kill itself in ``advance`` or in ``artifacts``.
    """

    def __init__(self, params, shard_id):
        if params.get("broken_shard") == shard_id:
            raise ValueError("no world for shard {}".format(shard_id))
        plan = ShardPlan(params["n_cells"], params["n_shards"])
        self.rounds = params["rounds"]
        #: This shard's ``advance`` never returns (a survivor of a failed run).
        self.stalls = params.get("stall_shard") == shard_id
        #: Where this shard's worker kills itself: "advance", "artifacts" or None.
        killed = params.get("killed", {})
        self.dies_in = killed.get(shard_id) if os.getpid() != params.get("parent") else None
        self.cells = plan.cells_of(shard_id)
        self.scheduler = Scheduler()
        self.log = {cell: [] for cell in self.cells}
        for cell in self.cells:
            self.scheduler.at(0.1 * (cell + 1), self._tick, cell, 0)

    def _tick(self, cell, round_index):
        self.log[cell].append((repr(self.scheduler.now), "tick", round_index))
        self.scheduler.after(LATENCY, self._recv, cell, self._ping(cell, round_index))
        if round_index + 1 < self.rounds:
            self.scheduler.after(0.3, self._tick, cell, round_index + 1)

    def _ping(self, cell, round_index):
        return ("ping", cell, round_index)

    def _recv(self, cell, ping):
        self.log[cell].append((repr(self.scheduler.now), "recv", ping))

    # -- the duck-typed world protocol ----------------------------------
    def advance(self, until):
        self.frozen = gc.get_freeze_count()
        if self.stalls:
            time.sleep(60)
        if self.dies_in == "advance":  # halfway to ``until``
            self.scheduler.run(until=until / 2)
            os.kill(os.getpid(), signal.SIGKILL)
        self.scheduler.run(until=until)

    def artifacts(self):
        if self.dies_in == "artifacts":
            os.kill(os.getpid(), signal.SIGKILL)
        return {
            "log": {cell: list(records) for cell, records in self.log.items()},
            "frozen": self.frozen,
        }


def merged_log(artifacts):
    entries = []
    for artifact in artifacts:
        for cell, records in artifact["log"].items():
            for index, record in enumerate(records):
                entries.append((float(record[0]), cell, index, record))
    entries.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in entries]


def toy_params(n_cells, n_shards, rounds=4, **faults):
    return dict(n_cells=n_cells, n_shards=n_shards, rounds=rounds, parent=os.getpid(), **faults)


def run_toy(n_cells, n_shards, workers=0, rounds=4, horizon=2.0, world=ToyWorld):
    plan = ShardPlan(n_cells, n_shards)
    artifacts, used = run_shards(
        plan, world, toy_params(n_cells, n_shards, rounds), horizon, workers=workers
    )
    return merged_log(artifacts), used


def run_failing(n_shards, what, **faults):
    """A forked toy run that must fail within 5 s with ``RuntimeError`` matching ``what``."""
    params = toy_params(4, n_shards, **faults)
    signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the run hung on a failed worker"))
    signal.alarm(20)  # the hard stop; the bound asserted below is 5 s
    started = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match=what) as failure:
            run_shards(ShardPlan(4, n_shards), ToyWorld, params, 2.0, workers=n_shards)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert time.monotonic() - started < 5.0
    return str(failure.value)


#: More than a socket buffer holds: an artifact logging pings padded
#: with it cannot be sent whole before the parent starts reading.
PADDING = "x" * (1 << 20) + "y" * 4096


class HeavyWorld(ToyWorld):
    """Every cell ticks at the same instants, and every ping carries ``PADDING``."""

    def __init__(self, params, shard_id):
        super().__init__(params, shard_id)
        self.scheduler = Scheduler()
        for cell in self.cells:
            self.scheduler.at(0.1, self._tick, cell, 0)

    def _ping(self, cell, round_index):
        return ("ping", cell, round_index, PADDING)


# -- ShardPlan ----------------------------------------------------------


def test_plan_is_balanced_contiguous_and_total():
    plan = ShardPlan(8, 3)
    widths = [len(plan.cells_of(shard)) for shard in plan.shards()]
    assert widths == [3, 3, 2]
    covered = [cell for shard in plan.shards() for cell in plan.cells_of(shard)]
    assert covered == list(range(8))


def test_plan_single_shard_owns_everything():
    plan = ShardPlan(4, 1)
    assert plan.cells_of(0) == (0, 1, 2, 3)
    assert plan.shards() == (0,)


def test_plan_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ShardPlan(4, 5)  # more shards than cells
    with pytest.raises(ValueError):
        ShardPlan(4, 0)
    with pytest.raises(ValueError):
        ShardPlan(0, 1)


# -- the run ----------------------------------------------------------


def test_toy_world_produces_ticks_and_receipts():
    log, workers = run_toy(n_cells=4, n_shards=1)
    kinds = {record[1] for record in log}
    assert kinds == {"tick", "recv"}
    # 4 cells x 4 rounds of ticks; every ping comes back.
    assert sum(1 for record in log if record[1] == "tick") == 16
    assert sum(1 for record in log if record[1] == "recv") == 16
    assert workers == 0


def test_groupings_agree_serial_vs_two_vs_four_shards():
    serial, _ = run_toy(n_cells=4, n_shards=1)
    two, _ = run_toy(n_cells=4, n_shards=2)
    four, _ = run_toy(n_cells=4, n_shards=4)
    assert serial == two == four


def test_forked_worker_pool_matches_in_process():
    if not fork_available():
        pytest.skip("fork start method unavailable")
    in_process, _ = run_toy(n_cells=4, n_shards=2, workers=0)
    forked, workers = run_toy(n_cells=4, n_shards=2, workers=2)
    assert workers == 2
    assert forked == in_process


def test_a_forked_worker_starts_with_its_inherited_heap_frozen():
    # A collection over the heap inherited from the fork cost a worker
    # 25-30 ms of an n256 run's ~60.
    if not fork_available():
        pytest.skip("fork start method unavailable")
    artifacts, _ = run_shards(ShardPlan(4, 2), ToyWorld, toy_params(4, 2), 2.0, workers=2)
    assert all(artifact["frozen"] > 0 for artifact in artifacts)


@pytest.mark.parametrize("killed", ["before-the-send", "mid-epoch"])
def test_killed_worker_fails_the_run_naming_its_shard(killed):
    # Was: a bare BrokenPipeError from the send, no shard named.
    # ("before-the-send": in place of its reply; "mid-epoch": while its
    # world runs.)
    if not fork_available():
        pytest.skip("fork start method unavailable")
    step = "advance" if killed == "mid-epoch" else "artifacts"
    run_failing(2, "shard worker 1 died", killed={1: step})


def test_a_world_that_fails_to_build_in_a_worker_fails_the_run():
    if not fork_available():
        pytest.skip("fork start method unavailable")
    message = run_failing(2, "shard worker 1 failed", broken_shard=1)
    # The worker's own traceback rides along, down to the raise.
    assert "Traceback (most recent call last)" in message
    assert "ValueError: no world for shard 1" in message


def test_a_killed_worker_among_four_fails_the_run_naming_its_shard():
    # Shard 3 never finishes: the failed run stops it instead of waiting.
    if not fork_available():
        pytest.skip("fork start method unavailable")
    run_failing(4, "shard worker 2 died", killed={2: "advance"}, stall_shard=3)


@pytest.mark.parametrize("workers", [2, 4])
def test_batches_larger_than_a_socket_buffer_never_deadlock_the_exchange(workers):
    # Every worker hands the parent megabytes of artifacts at once: a
    # parent reading one worker to the end before the next would wait
    # on a worker blocked in its send.
    if not fork_available():
        pytest.skip("fork start method unavailable")
    in_process, _ = run_toy(n_cells=4, n_shards=workers, world=HeavyWorld)
    signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the exchange deadlocked"))
    signal.alarm(20)
    try:
        forked, used = run_toy(n_cells=4, n_shards=workers, workers=workers, world=HeavyWorld)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert used == workers
    assert sum(1 for record in forked if record[1] == "recv") == 16
    assert forked == in_process


def test_workers_without_the_fork_start_method_raise(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with pytest.raises(ValueError, match="'fork' start method"):
        run_shards(ShardPlan(4, 2), ToyWorld, toy_params(4, 2), 2.0, workers=2)


def test_workers_below_two_stay_in_process():
    _, workers = run_toy(n_cells=4, n_shards=2, workers=1)
    assert workers == 0

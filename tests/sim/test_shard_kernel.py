"""The sharded kernel in isolation: plan, worlds, workers, determinism.

A deliberately tiny "toy world" — cells ticking on their own schedulers
and receiving their own pings — exercises building, stepping and
collecting worlds without any of the cluster machinery, so a failure
here localizes to the kernel itself. The headline assertion is the
kernel's contract: the merged event log is identical under every shard
grouping, including the forked worker pool.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.net.partition import ShardPlan
from repro.sim.scheduler import Scheduler
from repro.sim.shard.kernel import ShardedKernel
from repro.sim.shard.pool import fork_available

#: How long a ping takes to come back to the cell that sent it.
LATENCY = 0.05


class ToyWorld:
    """Minimal kernel-protocol world: per-cell ticks + their own pings.

    Every cell ticks ``rounds`` times; each tick sends the cell a ping,
    received ``LATENCY`` later. Cells log ticks and receipts with their
    virtual timestamps; the merged log is the determinism witness.
    """

    def __init__(self, params, shard_id):
        if params.get("broken_shard") == shard_id:
            raise ValueError("no world for shard {}".format(shard_id))
        plan = ShardPlan(params["n_cells"], params["n_shards"])
        self.rounds = params["rounds"]
        #: This shard's ``advance`` never returns (a worker to be killed mid-run).
        self.stalls = params.get("stall_shard") == shard_id
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

    # -- the duck-typed kernel protocol ---------------------------------
    def advance(self, until):
        if self.stalls:
            time.sleep(60)
        self.scheduler.run(until=until)

    def artifacts(self):
        return {"log": {cell: list(records) for cell, records in self.log.items()}}


def merged_log(kernel):
    entries = []
    for artifact in kernel.collect():
        for cell, records in artifact["log"].items():
            for index, record in enumerate(records):
                entries.append((float(record[0]), cell, index, record))
    entries.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in entries]


def run_toy(n_cells, n_shards, workers=0, rounds=4, horizon=2.0, world=ToyWorld, calls=1):
    plan = ShardPlan(n_cells, n_shards)
    kernel = ShardedKernel(
        plan,
        world,
        {"n_cells": n_cells, "n_shards": n_shards, "rounds": rounds},
        workers=workers,
    )
    try:
        kernel.start()
        for call in range(1, calls + 1):
            kernel.run(horizon * call / calls)
        return merged_log(kernel), kernel
    finally:
        kernel.close()


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


# -- the kernel ---------------------------------------------------------


def test_toy_world_produces_ticks_and_receipts():
    log, kernel = run_toy(n_cells=4, n_shards=1)
    kinds = {record[1] for record in log}
    assert kinds == {"tick", "recv"}
    # 4 cells x 4 rounds of ticks; every ping comes back.
    assert sum(1 for record in log if record[1] == "tick") == 16
    assert sum(1 for record in log if record[1] == "recv") == 16
    assert kernel.workers == 0
    assert kernel.epochs == 1


def test_groupings_agree_serial_vs_two_vs_four_shards():
    serial, _ = run_toy(n_cells=4, n_shards=1)
    two, _ = run_toy(n_cells=4, n_shards=2)
    four, _ = run_toy(n_cells=4, n_shards=4)
    assert serial == two == four


def test_forked_worker_pool_matches_in_process():
    if not fork_available():
        pytest.skip("fork start method unavailable")
    in_process, _ = run_toy(n_cells=4, n_shards=2, workers=0)
    forked, kernel = run_toy(n_cells=4, n_shards=2, workers=2)
    assert kernel.workers == 2
    assert forked == in_process


@pytest.mark.parametrize("killed", ["before-the-send", "mid-epoch"])
def test_killed_worker_fails_the_run_naming_its_shard(killed):
    # Was: a bare BrokenPipeError from the send, no shard named.
    # ("mid-epoch": while its world runs.)
    if not fork_available():
        pytest.skip("fork start method unavailable")
    mid_epoch = killed == "mid-epoch"
    params = {"n_cells": 4, "n_shards": 2, "rounds": 4}
    if mid_epoch:
        params["stall_shard"] = 1
    kernel = ShardedKernel(ShardPlan(4, 2), ToyWorld, params, workers=2)
    kernel.start()
    victim = kernel._runner._procs[1]
    kill = threading.Timer(0.3 if mid_epoch else 0.0, os.kill, (victim.pid, signal.SIGKILL))
    signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the run hung on a dead worker"))
    signal.alarm(20)  # the hard stop; the bound asserted below is 5 s
    started = time.monotonic()
    try:
        kill.start()
        if not mid_epoch:
            victim.join()  # dead before the parent sends a thing
        with pytest.raises(RuntimeError, match="shard worker 1 died"):
            kernel.run(2.0)  # mid-epoch: blocks in recv until the kill lands
    finally:
        kernel.close()  # joins the survivor
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert time.monotonic() - started < 5.0


def test_a_world_that_fails_to_build_in_a_worker_fails_the_run():
    if not fork_available():
        pytest.skip("fork start method unavailable")
    params = {"n_cells": 4, "n_shards": 2, "rounds": 4, "broken_shard": 1}
    kernel = ShardedKernel(ShardPlan(4, 2), ToyWorld, params, workers=2)
    kernel.start()
    signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the run hung on a failed build"))
    signal.alarm(20)
    started = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="shard worker 1 failed") as failure:
            kernel.run(2.0)
    finally:
        kernel.close()  # the worker that built its world exits on "close"
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert time.monotonic() - started < 5.0
    # The worker's own traceback rides along, down to the raise.
    assert "Traceback (most recent call last)" in str(failure.value)
    assert "ValueError: no world for shard 1" in str(failure.value)


def test_a_killed_worker_among_four_fails_the_run_naming_its_shard():
    if not fork_available():
        pytest.skip("fork start method unavailable")
    params = {"n_cells": 4, "n_shards": 4, "rounds": 4, "stall_shard": 2}
    kernel = ShardedKernel(ShardPlan(4, 4), ToyWorld, params, workers=4)
    kernel.start()
    kill = threading.Timer(0.3, os.kill, (kernel._runner._procs[2].pid, signal.SIGKILL))
    signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the run hung on a dead worker"))
    signal.alarm(20)
    started = time.monotonic()
    try:
        kill.start()
        with pytest.raises(RuntimeError, match="shard worker 2 died"):
            kernel.run(2.0)
    finally:
        kernel.close()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert time.monotonic() - started < 5.0


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
        forked, kernel = run_toy(n_cells=4, n_shards=workers, workers=workers, world=HeavyWorld)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert kernel.workers == workers
    assert sum(1 for record in forked if record[1] == "recv") == 16
    assert forked == in_process


@pytest.mark.parametrize("calls", [1, 10, 100])
def test_a_forked_run_split_into_calls_matches_one_call(calls):
    # Calls of 20 ms end with pings in flight: they wait in their world.
    if not fork_available():
        pytest.skip("fork start method unavailable")
    whole, _ = run_toy(n_cells=4, n_shards=2)
    split, kernel = run_toy(n_cells=4, n_shards=2, workers=2, calls=calls)
    assert kernel.workers == 2
    assert split == whole


def test_workers_without_the_fork_start_method_raise(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    params = {"n_cells": 4, "n_shards": 2, "rounds": 4}
    kernel = ShardedKernel(ShardPlan(4, 2), ToyWorld, params, workers=2)
    with pytest.raises(ValueError, match="'fork' start method"):
        kernel.start()


def test_workers_below_two_stay_in_process():
    _, kernel = run_toy(n_cells=4, n_shards=2, workers=1)
    assert kernel.workers == 0


def test_kernel_refuses_double_start():
    plan = ShardPlan(2, 1)
    kernel = ShardedKernel(plan, ToyWorld, {"n_cells": 2, "n_shards": 1, "rounds": 1})
    kernel.start()
    with pytest.raises(RuntimeError):
        kernel.start()
    kernel.close()

"""The sharded kernel in isolation: plan, epochs, routing, determinism.

A deliberately tiny "toy world" — cells ticking on their own schedulers
and pinging their neighbour cell through envelopes — exercises the
epoch-barrier loop without any of the cluster machinery, so a failure
here localizes to the kernel itself. The headline assertion is the
kernel's contract: the merged event log is identical under every shard
grouping, including the forked worker pool.
"""

import gc
import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.net.partition import (
    DEFAULT_INTER_LATENCY,
    ShardPlan,
    envelope_key,
)
from repro.sim.scheduler import Scheduler
from repro.sim.shard.kernel import InProcessRunner, ShardedKernel
from repro.sim.shard.pool import fork_available

LOOKAHEAD = 0.05


class ToyWorld:
    """Minimal kernel-protocol world: per-cell ticks + neighbour pings.

    Every cell ticks ``rounds`` times; each tick sends one envelope to
    the next cell (mod ``n_cells``), which lands ``LOOKAHEAD`` later.
    Cells log ticks and receipts with their virtual timestamps; the
    merged log is the determinism witness.
    """

    def __init__(self, params, shard_id):
        if params.get("broken_shard") == shard_id:
            raise ValueError("no world for shard {}".format(shard_id))
        plan = ShardPlan(params["n_cells"], params["n_shards"], lookahead=LOOKAHEAD)
        self.n_cells = params["n_cells"]
        self.rounds = params["rounds"]
        #: This shard's ``advance`` never returns (a worker to be killed mid-epoch).
        self.stalls = params.get("stall_shard") == shard_id
        self.cells = plan.cells_of(shard_id)
        self.scheduler = Scheduler()
        self.outbound = []
        self.log = {cell: [] for cell in self.cells}
        self._seq = {}
        for cell in self.cells:
            self.scheduler.at(0.1 * (cell + 1), self._tick, cell, 0)

    def _tick(self, cell, round_index):
        self.log[cell].append((repr(self.scheduler.now), "tick", round_index))
        dst = (cell + 1) % self.n_cells
        seq = self._seq.get(cell, 0)
        self._seq[cell] = seq + 1
        self.outbound.append(
            (
                self.scheduler.now + LOOKAHEAD,
                cell,
                seq,
                dst,
                "",
                0,
                "",
                0,
                ("ping", cell, round_index),
            )
        )
        if round_index + 1 < self.rounds:
            self.scheduler.after(0.3, self._tick, cell, round_index + 1)

    def _recv(self, envelope):
        self.log[envelope[3]].append(
            (repr(self.scheduler.now), "recv", envelope[1], envelope[8])
        )

    # -- the duck-typed kernel protocol ---------------------------------
    def next_event_time(self):
        return self.scheduler.next_event_time()

    def inject(self, envelopes):
        for envelope in envelopes:
            self.scheduler.at(envelope[0], self._recv, envelope)

    def advance(self, until, inclusive):
        if self.stalls:
            time.sleep(60)
        self.scheduler.run(until=until, inclusive=inclusive)

    def drain_outbound(self):
        out = self.outbound
        self.outbound = []
        return out

    def artifacts(self):
        return {"log": {cell: list(records) for cell, records in self.log.items()}}


class MuteWorld(ToyWorld):
    """Shard ``mute_shard`` closes its mesh sockets, then hangs alive in ``advance``."""

    def __init__(self, params, shard_id):
        super().__init__(params, shard_id)
        self.mute = params.get("mute_shard") == shard_id

    def advance(self, until, inclusive):
        if self.mute:
            for thing in gc.get_objects():
                if isinstance(thing, socket.socket):
                    thing.close()
            time.sleep(60)
        super().advance(until, inclusive)


def merged_log(kernel):
    entries = []
    for artifact in kernel.collect():
        for cell, records in artifact["log"].items():
            for index, record in enumerate(records):
                entries.append((float(record[0]), cell, index, record))
    entries.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in entries]


def run_toy(n_cells, n_shards, workers=0, rounds=4, horizon=2.0, world=ToyWorld, calls=1):
    plan = ShardPlan(n_cells, n_shards, lookahead=LOOKAHEAD)
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


#: More than a socket buffer holds: a ping padded with it cannot be
#: sent whole before the peer starts reading.
PADDING = "x" * (1 << 20) + "y" * 4096


class HeavyWorld(ToyWorld):
    """Every cell ticks at the same instants, and every ping carries ``PADDING``."""

    def __init__(self, params, shard_id):
        super().__init__(params, shard_id)
        self.scheduler = Scheduler()
        for cell in self.cells:
            self.scheduler.at(0.1, self._tick, cell, 0)

    def _tick(self, cell, round_index):
        super()._tick(cell, round_index)
        envelope = self.outbound[-1]
        self.outbound[-1] = envelope[:8] + (envelope[8] + (PADDING,),)

    def _recv(self, envelope):
        assert envelope[8][3] == PADDING
        super()._recv(envelope[:8] + (envelope[8][:3],))


# -- ShardPlan ----------------------------------------------------------


def test_plan_is_balanced_contiguous_and_total():
    plan = ShardPlan(8, 3)
    widths = [len(plan.cells_of(shard)) for shard in plan.shards()]
    assert widths == [3, 3, 2]
    covered = [cell for shard in plan.shards() for cell in plan.cells_of(shard)]
    assert covered == list(range(8))
    for shard in plan.shards():
        for cell in plan.cells_of(shard):
            assert plan.shard_of(cell) == shard


def test_plan_single_shard_owns_everything():
    plan = ShardPlan(4, 1)
    assert plan.cells_of(0) == (0, 1, 2, 3)
    assert plan.lookahead == DEFAULT_INTER_LATENCY


def test_plan_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ShardPlan(4, 5)  # more shards than cells
    with pytest.raises(ValueError):
        ShardPlan(4, 0)
    with pytest.raises(ValueError):
        ShardPlan(0, 1)
    with pytest.raises(ValueError):
        ShardPlan(4, 2, lookahead=0.0)


def test_envelope_key_orders_by_time_then_source_then_seq():
    envelopes = [
        (1.0, 2, 0, 9, "", 0, "", 0, "c"),
        (1.0, 1, 1, 9, "", 0, "", 0, "b"),
        (0.5, 3, 7, 9, "", 0, "", 0, "a"),
        (1.0, 1, 0, 9, "", 0, "", 0, "d"),
    ]
    ordered = sorted(envelopes, key=envelope_key)
    assert [env[8] for env in ordered] == ["a", "d", "b", "c"]


# -- the kernel ---------------------------------------------------------


def test_toy_world_produces_ticks_and_receipts():
    log, kernel = run_toy(n_cells=4, n_shards=1)
    kinds = {record[1] for record in log}
    assert kinds == {"tick", "recv"}
    # 4 cells x 4 rounds of ticks; every ping sent early enough lands.
    assert sum(1 for record in log if record[1] == "tick") == 16
    assert sum(1 for record in log if record[1] == "recv") == 16
    assert kernel.workers == 0
    assert kernel.epochs > 1


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
    if not fork_available():
        pytest.skip("fork start method unavailable")
    mid_epoch = killed == "mid-epoch"
    params = {"n_cells": 4, "n_shards": 2, "rounds": 4}
    if mid_epoch:
        params["stall_shard"] = 1
    kernel = ShardedKernel(ShardPlan(4, 2, lookahead=LOOKAHEAD), ToyWorld, params, workers=2)
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
    kernel = ShardedKernel(ShardPlan(4, 2, lookahead=LOOKAHEAD), ToyWorld, params, workers=2)
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
    # Its three peers notice first (EOF on the mesh); the run names the dead one.
    if not fork_available():
        pytest.skip("fork start method unavailable")
    params = {"n_cells": 4, "n_shards": 4, "rounds": 4, "stall_shard": 2}
    kernel = ShardedKernel(ShardPlan(4, 4, lookahead=LOOKAHEAD), ToyWorld, params, workers=4)
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


def test_the_peer_that_notices_a_lost_worker_is_not_the_one_named():
    # Shard 0 sees shard 1's sockets close a second before shard 1 dies.
    if not fork_available():
        pytest.skip("fork start method unavailable")
    params = {"n_cells": 4, "n_shards": 2, "rounds": 4, "mute_shard": 1}
    kernel = ShardedKernel(ShardPlan(4, 2, lookahead=LOOKAHEAD), MuteWorld, params, workers=2)
    kernel.start()
    kill = threading.Timer(1.0, os.kill, (kernel._runner._procs[1].pid, signal.SIGKILL))
    signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the run hung on a dead worker"))
    signal.alarm(20)
    started = time.monotonic()
    try:
        kill.start()
        with pytest.raises(RuntimeError, match="shard worker 1 died"):
            kernel.run(2.0)
    finally:
        kernel.close()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert 1.0 <= time.monotonic() - started < 5.0


@pytest.mark.parametrize("workers", [2, 4])
def test_batches_larger_than_a_socket_buffer_never_deadlock_the_exchange(workers):
    # Every worker sends its ring neighbour a megabyte in the same epoch:
    # send-then-receive on both ends would block forever.
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
    # Calls of 20 ms end inside the 50 ms lookahead, with pings in flight:
    # they wait in the worker of the shard they are bound for.
    if not fork_available():
        pytest.skip("fork start method unavailable")
    whole, _ = run_toy(n_cells=4, n_shards=2)
    split, kernel = run_toy(n_cells=4, n_shards=2, workers=2, calls=calls)
    assert kernel.workers == 2
    assert split == whole


def test_workers_without_the_fork_start_method_raise(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    params = {"n_cells": 4, "n_shards": 2, "rounds": 4}
    kernel = ShardedKernel(ShardPlan(4, 2, lookahead=LOOKAHEAD), ToyWorld, params, workers=2)
    with pytest.raises(ValueError, match="'fork' start method"):
        kernel.start()


def test_workers_below_two_stay_in_process():
    _, kernel = run_toy(n_cells=4, n_shards=2, workers=1)
    assert kernel.workers == 0


def test_in_process_runner_round_trips_envelopes():
    plan = ShardPlan(2, 2, lookahead=LOOKAHEAD)
    runner = InProcessRunner(ToyWorld, {"n_cells": 2, "n_shards": 2, "rounds": 1}, [0, 1], plan)
    # Barriers 0.15 (cell 0 ticks, pings cell 1), 0.2 (the ping lands),
    # then inclusive at 0.25 (cell 1 ticks, pings cell 0).
    assert runner.run_to(0.25) == (0.25, 3)
    (log0, log1) = [artifact["log"] for artifact in runner.collect()]
    assert [record[1] for record in log0[0]] == ["tick"]
    assert [record[1] for record in log1[1]] == ["recv", "tick"]
    # The last ping is routed at the final barrier and waits in cell 0's inbox.
    (waiting,), empty = runner.inboxes
    assert (waiting[0], waiting[1], waiting[3]) == (0.25, 1, 0) and empty == []
    runner.close()


def test_kernel_refuses_double_start():
    plan = ShardPlan(2, 1)
    kernel = ShardedKernel(plan, ToyWorld, {"n_cells": 2, "n_shards": 1, "rounds": 1})
    kernel.start()
    with pytest.raises(RuntimeError):
        kernel.start()
    kernel.close()

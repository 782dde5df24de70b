"""Forked worker processes for a sharded run: a transport only.

Edge infrastructure, deliberately outside the deterministic substrate:
this is the only module under ``repro.sim`` that touches real
processes and pipes. Each worker makes the
kernel's own :func:`~repro.sim.shard.kernel.run_world` call for its one
shard and sends one reply, its world's artifacts or
``("error", traceback_text)``. The parent waits on every pipe and
process sentinel at once, so it names the shard that failed or died
and never hangs on a dead worker or on a reply larger than a pipe.
"""

import gc
import multiprocessing
import traceback
from multiprocessing.connection import wait

from repro.sim.shard.kernel import run_world


def fork_available():
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _shard_worker_main(conn, factory, params, shard, until):
    # The heap inherited from the fork is the parent's, never garbage
    # here: a full collection over it would cost tens of milliseconds.
    gc.freeze()
    try:
        conn.send(("ok", run_world(factory, params, shard, until)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # the parent has stopped listening: nobody to tell
            pass
    finally:
        conn.close()


def _replies(conns, procs, shards):
    """Each worker's reply, in shard order; raises naming a failed or dead shard."""
    replies = {}
    waiting = {}
    for index, (conn, process) in enumerate(zip(conns, procs)):
        waiting[conn] = waiting[process.sentinel] = index
    while waiting:
        for ready in wait(list(waiting)):
            index = waiting.get(ready)
            if index is None:  # this worker's other handle answered first
                continue
            conn = conns[index]
            try:
                status, value = conn.recv() if conn.poll() else (None, None)
            except (EOFError, OSError):
                status = None
            if status is None:
                raise RuntimeError("shard worker {} died without a reply".format(shards[index]))
            if status == "error":
                raise RuntimeError("shard worker {} failed:\n{}".format(shards[index], value))
            del waiting[conn], waiting[procs[index].sentinel]
            replies[index] = value
    return [replies[index] for index in range(len(conns))]


def run_forked(factory, params, shards, until):
    """One forked worker per shard, each run to ``until``; their artifacts in shard order."""
    if not fork_available():
        raise ValueError("workers >= 2 need the 'fork' start method, which this platform lacks")
    context = multiprocessing.get_context("fork")
    conns, procs, replies = [], [], None
    try:
        for shard in shards:
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(
                target=_shard_worker_main,
                args=(writer, factory, params, shard, until),
                daemon=True,
            )
            process.start()
            writer.close()
            conns.append(reader)
            procs.append(process)
        replies = _replies(conns, procs, shards)
        return replies
    finally:
        for conn in conns:
            conn.close()
        for process in procs:
            if replies is None:  # a failed run: the survivors' work is moot
                process.terminate()
            process.join()

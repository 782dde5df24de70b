"""Forked worker processes for the sharded kernel: a transport only.

Edge infrastructure, deliberately outside the deterministic substrate:
this is the only module under ``repro.sim`` allowed to touch real
processes and pipes (a scoped DET001 allowance — see
``repro.analysis.engine.DEFAULT_SIM_EDGE``). Each forked worker builds
the kernel's own :class:`~repro.sim.shard.kernel.InProcessRunner` for
its one shard, so the step is written once. Worlds share nothing, so
workers never talk to each other: the parent sends each one
``("run_to", until)`` per :meth:`ShardedKernel.run` and a final
``("collect", None)``, and only plain data — a time, artifact dicts —
crosses a process boundary.

A failure inside a worker, building its world included, comes back as
``("error", traceback_text)``. The parent waits on every control pipe
and process sentinel at once, so it names the shard that failed or
died and never hangs on a dead worker.
"""

import multiprocessing
import traceback
from multiprocessing.connection import wait

from repro.sim.shard.kernel import InProcessRunner


def fork_available():
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _shard_worker_main(control, factory, params, shard):
    try:
        runner = InProcessRunner(factory, params, [shard])
        while True:
            method, until = control.recv()
            if method == "close":
                return
            if method == "run_to":
                runner.run_to(until)
                control.send(("ok", None))
            else:
                control.send(("ok", runner.collect()))
    except BaseException:
        try:
            control.send(("error", traceback.format_exc()))
        except OSError:  # the parent has stopped listening: nobody to tell
            pass
    finally:
        control.close()


class WorkerPoolRunner:
    """One forked worker per shard, driven over control pipes."""

    def __init__(self, factory, params, shard_ids):
        if not fork_available():
            raise ValueError(
                "workers >= 2 need the 'fork' start method, which this platform lacks"
            )
        context = multiprocessing.get_context("fork")
        self._shard_ids = list(shard_ids)
        self._conns = []
        self._procs = []
        for shard in self._shard_ids:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(child_conn, factory, params, shard),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)

    def _call(self, method, until=None):
        """Send every worker one call; their replies, in shard order."""
        for conn in self._conns:
            try:
                conn.send((method, until))
            except OSError:  # a dead worker: the wait below names it
                pass
        replies = {}
        waiting = {}
        for index, (conn, process) in enumerate(zip(self._conns, self._procs)):
            waiting[conn] = waiting[process.sentinel] = index
        while waiting:
            for ready in wait(list(waiting)):
                index = waiting.get(ready)
                if index is None:  # this worker's other handle answered first
                    continue
                conn, shard = self._conns[index], self._shard_ids[index]
                try:
                    status, value = conn.recv() if conn.poll() else (None, None)
                except (EOFError, OSError):
                    status = None
                if status is None:
                    raise RuntimeError("shard worker {} died without a reply".format(shard))
                if status == "error":
                    raise RuntimeError("shard worker {} failed:\n{}".format(shard, value))
                del waiting[conn], waiting[self._procs[index].sentinel]
                replies[index] = value
        return [replies[index] for index in range(len(self._conns))]

    def run_to(self, until):
        self._call("run_to", until)

    def collect(self):
        return [artifacts for reply in self._call("collect") for artifacts in reply]

    def close(self):
        for conn in self._conns:
            try:
                conn.send(("close", None))
            except OSError:
                pass
            conn.close()
        for process in self._procs:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join(timeout=5)
        self._conns = []
        self._procs = []

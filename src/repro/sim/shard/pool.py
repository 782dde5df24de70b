"""Forked worker processes for the sharded kernel: a transport only.

Edge infrastructure, deliberately outside the deterministic substrate:
this is the only module under ``repro.sim`` allowed to touch real
processes and pipes (a scoped DET001 allowance — see
``repro.analysis.engine.DEFAULT_SIM_EDGE``). Each worker is forked
with the world factory and builds the kernel's own
:class:`~repro.sim.shard.kernel.InProcessRunner` for its one shard, so
the epoch step is written once. Everything that crosses the pipe is
plain data: ``(method, args)`` calls on the way in — ``sync``,
``advance_all``, ``collect``, ``close`` — and the runner's envelope
tuples and artifact dicts on the way out. Simulated state never leaves
its owning process.

Same shape as the ``repro.check`` campaign pool — ``fork`` start
method, workers built once and reused every epoch — but with a
persistent duplex pipe per worker instead of a task queue, because the
kernel's epoch loop is a synchronous broadcast/collect exchange, not a
bag of independent tasks.

A failure inside a worker, building its world included, comes back as
``("error", traceback_text)``, a worker that died as an EOF; the parent
re-raises either naming the shard, so the run fails loudly, never hangs
the barrier.
"""

import multiprocessing
import traceback

from repro.sim.shard.kernel import InProcessRunner


def fork_available():
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _shard_worker_main(conn, factory, params, shard_id):
    try:
        runner = InProcessRunner(factory, params, [shard_id])
        while True:
            method, args = conn.recv()
            if method == "close":
                return
            conn.send(("ok", getattr(runner, method)(*args)))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class WorkerPoolRunner:
    """One forked worker per shard, called over persistent pipes."""

    def __init__(self, factory, params, shard_ids):
        if not fork_available():
            raise ValueError(
                "workers >= 2 need the 'fork' start method, which this platform lacks"
            )
        context = multiprocessing.get_context("fork")
        self._shard_ids = list(shard_ids)
        self._conns = []
        self._procs = []
        for shard_id in self._shard_ids:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(child_conn, factory, params, shard_id),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)

    def _call(self, method, args_per_worker):
        """Call ``method`` on every worker's runner; their replies, in shard order."""
        # Broadcast first, then collect: every worker runs its epoch
        # concurrently while the parent blocks on the slowest reply.
        for conn, args in zip(self._conns, args_per_worker):
            try:
                conn.send((method, args))
            except OSError:  # a dead worker: its recv below names it
                pass
        replies = []
        for shard, conn in zip(self._shard_ids, self._conns):
            try:
                status, value = conn.recv()
            except (EOFError, OSError) as broken:
                raise RuntimeError("shard worker {} died without a reply".format(shard)) from broken
            if status != "ok":
                raise RuntimeError("shard worker {} failed:\n{}".format(shard, value))
            replies.extend(value)
        return replies

    def sync(self):
        return self._call("sync", [()] * len(self._conns))

    def advance_all(self, until, inclusive, batches):
        return self._call("advance_all", [(until, inclusive, [batch]) for batch in batches])

    def collect(self):
        return self._call("collect", [()] * len(self._conns))

    def close(self):
        for conn in self._conns:
            try:
                conn.send(("close", ()))
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

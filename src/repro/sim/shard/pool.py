"""Warm worker-process pool for the sharded kernel.

Edge infrastructure, deliberately outside the deterministic substrate:
this is the only module under ``repro.sim`` allowed to touch real
processes and pipes (a scoped DET001 allowance — see
``repro.analysis.engine.DEFAULT_SIM_EDGE``). Everything that crosses
the boundary is plain picklable data: the ``(params, shard_id)`` world
spec on the way in, envelope tuples and artifact dicts on the way out.
Simulated state never leaves its owning process.

Same shape as the ``repro.check`` campaign pool — ``fork`` start
method, workers built warm once and reused every epoch — but with a
persistent duplex pipe per worker instead of a task queue, because the
kernel's epoch loop is a synchronous broadcast/collect exchange, not a
bag of independent tasks. Commands:

* ``("advance", (until, inclusive, envelopes))`` → the worker injects
  the envelopes, runs its scheduler to the barrier, and replies
  ``("ok", (outbound_envelopes, next_event_time))``;
* ``("sync", None)`` → ``("ok", (outbound_envelopes, next_event_time))``
  without advancing;
* ``("collect", None)`` → ``("ok", artifacts_dict)``;
* ``("close", None)`` → the worker exits.

A failure inside a worker comes back as ``("error", traceback_text)``,
a worker that died as a broken pipe or an EOF; the parent re-raises
either naming the shard, so the run fails loudly, never hangs the barrier.
"""

import multiprocessing
import traceback

from repro.sim.shard.kernel import resolve_factory


def fork_available():
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _shard_worker_main(conn, factory_ref, params, shard_id):
    try:
        world = resolve_factory(factory_ref)(params, shard_id)
        conn.send(("ok", world.next_event_time()))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    while True:
        command, payload = conn.recv()
        if command == "close":
            conn.close()
            return
        try:
            if command == "advance":
                until, inclusive, envelopes = payload
                world.inject(envelopes)
                world.advance(until, inclusive)
            if command in ("advance", "sync"):
                reply = (world.drain_outbound(), world.next_event_time())
            elif command == "collect":
                reply = world.artifacts()
            else:
                raise ValueError("unknown shard worker command {!r}".format(command))
        except BaseException:
            conn.send(("error", traceback.format_exc()))
            conn.close()
            return
        conn.send(("ok", reply))


class WorkerPoolRunner:
    """One forked warm worker per shard, driven over persistent pipes."""

    def __init__(self, factory_ref, params, shard_ids):
        context = multiprocessing.get_context("fork")
        self._shard_ids = list(shard_ids)
        self._conns = []
        self._procs = []
        for shard_id in self._shard_ids:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(child_conn, factory_ref, params, shard_id),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)

    def _exchange(self, messages):
        """Send each worker its message (None: none), then take every reply."""
        # Broadcast first, then collect: every worker runs its epoch
        # concurrently while the parent blocks on the slowest reply.
        replies = []
        try:
            for shard, conn, message in zip(self._shard_ids, self._conns, messages):
                if message is not None:
                    conn.send(message)
            for shard, conn in zip(self._shard_ids, self._conns):
                status, value = conn.recv()
                if status != "ok":
                    raise RuntimeError("shard worker {} failed:\n{}".format(shard, value))
                replies.append(value)
        except (EOFError, OSError) as broken:  # a send into a dead pipe, a recv at its EOF
            raise RuntimeError("shard worker {} died without a reply".format(shard)) from broken
        return replies

    def start(self):
        return self._exchange([None] * len(self._conns))

    def sync(self):
        return self._exchange([("sync", None)] * len(self._conns))

    def advance_all(self, until, inclusive, batches):
        return self._exchange([("advance", (until, inclusive, batch)) for batch in batches])

    def collect(self):
        return self._exchange([("collect", None)] * len(self._conns))

    def close(self):
        for conn in self._conns:
            try:
                conn.send(("close", None))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for process in self._procs:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join(timeout=5)
        self._conns = []
        self._procs = []

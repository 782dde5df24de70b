"""Forked worker processes for the sharded kernel: a transport only.

Edge infrastructure, deliberately outside the deterministic substrate:
this is the only module under ``repro.sim`` allowed to touch real
processes, pipes and sockets (a scoped DET001 allowance — see
``repro.analysis.engine.DEFAULT_SIM_EDGE``). Each forked worker builds
the kernel's own :class:`~repro.sim.shard.kernel.InProcessRunner` for
its one shard, so the epoch step is written once; its exchange is
:class:`PeerExchange`, a swap over a full mesh of socket pairs. The
parent is not in the epoch loop: it sends each worker one
``("run_to", until)`` per :meth:`ShardedKernel.run` and gets back
``(now, epochs)``. Only plain data crosses a process boundary —
envelope tuples, bounds, artifact dicts — and envelopes still in flight
when a call ends wait in their worker.

A failure inside a worker, building its world included, comes back as
``("error", traceback_text)``; a worker whose peer vanished says
``("lost", None)`` and exits. The parent waits on every control pipe
and process sentinel at once, so it names the shard that failed or
died, not a peer that noticed first, and never hangs a barrier.
"""

import multiprocessing
import os
import pickle
import select
import socket
import struct
import time
import traceback
from multiprocessing.connection import wait

from repro.sim.shard.kernel import InProcessRunner

#: A mesh message's length prefix.
FRAME = struct.Struct("!Q")
#: How long a worker at a barrier polls its peers before it sleeps in
#: ``select``. Waking a process that slept costs 40 µs at the median and
#: up to 450 µs on a 2-vCPU VM, against a barrier every 0.5 ms of work.
SPIN_S = 0.002
clock = time.monotonic  # repro: allow det001 -- the spin's deadline, never simulated time


def fork_available():
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


class PeerLost(ConnectionError):
    """A peer worker closed its end of the mesh: it failed or died."""


class PeerExchange:
    """One forked worker's side of the barrier: a swap with every peer.

    ``peers`` maps each peer shard to this worker's socket to it. Every
    message is ``(envelopes bound for the peer's shard, this shard's
    bound)``, pickled. Writes interleave with reads, so two workers that
    both send a batch larger than the socket buffer never wait on each
    other.
    """

    def __init__(self, shard, peers, shard_of):
        self.shard = shard
        self._peers = peers
        self._shard_of = shard_of
        #: Per socket, bytes read past the last whole message: a peer
        #: that has passed this barrier may already have sent the next.
        self._unread = {sock: bytearray() for sock in peers.values()}
        for sock in peers.values():
            sock.setblocking(False)

    def __call__(self, inboxes, outbound, bound):
        (inbox,) = inboxes
        batches = {peer: [] for peer in self._peers}
        shard_of = self._shard_of
        for envelope in outbound:
            shard = shard_of(envelope[3])
            (inbox if shard == self.shard else batches[shard]).append(envelope)
        received = self._swap({
            sock: pickle.dumps((batches[peer], bound), pickle.HIGHEST_PROTOCOL)
            for peer, sock in self._peers.items()
        })
        earliest = bound
        for data in received:
            batch, peer_bound = pickle.loads(data)
            inbox += batch
            if peer_bound is not None and (earliest is None or peer_bound < earliest):
                earliest = peer_bound
        return earliest

    def _swap(self, payloads):
        """Send each socket its payload while reading one message from each; theirs, in order."""
        unsent = {}
        for sock, data in payloads.items():
            rest = _send(sock, memoryview(FRAME.pack(len(data)) + data))
            if rest:
                unsent[sock] = rest
        received = {sock: self._take(sock) for sock in payloads}
        waiting = [sock for sock, message in received.items() if message is None]
        spin_until = clock() + SPIN_S
        while unsent or waiting:
            timeout = 0.0 if clock() < spin_until else None
            readable, writable, _ = select.select(waiting, list(unsent), [], timeout)
            if not readable and not writable:
                os.sched_yield()  # a peer sharing this core may be the one to wait for
                continue
            for sock in writable:
                unsent[sock] = _send(sock, unsent[sock])
                if not unsent[sock]:
                    del unsent[sock]
            for sock in readable:
                chunk = sock.recv(1 << 20)
                if not chunk:
                    raise PeerLost("a peer closed its end of the mesh")
                self._unread[sock] += chunk
                received[sock] = self._take(sock)
                if received[sock] is not None:
                    waiting.remove(sock)
        return [received[sock] for sock in payloads]

    def _take(self, sock):
        """The first whole message read from ``sock``, removed from its buffer, or None."""
        buffer = self._unread[sock]
        if len(buffer) < FRAME.size:
            return None
        end = FRAME.size + FRAME.unpack_from(buffer)[0]
        if len(buffer) < end:
            return None
        message = bytes(buffer[FRAME.size:end])
        del buffer[:end]
        return message


def _send(sock, data):
    """Write what ``sock`` takes of ``data`` now; the rest, empty once all went."""
    try:
        return data[sock.send(data):]
    except BlockingIOError:
        return data


def _shard_worker_main(control, mesh, index, factory, params, shard_ids, plan):
    peers = {}
    for (owner, peer), sock in mesh.items():
        if owner == index:
            peers[shard_ids[peer]] = sock
        else:  # a peer's end: held here, its owner's death would never read as EOF
            sock.close()
    shard = shard_ids[index]
    try:
        runner = InProcessRunner(
            factory, params, [shard], plan, PeerExchange(shard, peers, plan.shard_of)
        )
        while True:
            method, until = control.recv()
            if method == "close":
                return
            control.send(("ok", runner.run_to(until) if method == "run_to" else runner.collect()))
    except BaseException as failure:
        # A lost peer (or parent) is not this worker's failure: the
        # parent names the worker that failed or died.
        lost = isinstance(failure, ConnectionError)
        try:
            control.send(("lost", None) if lost else ("error", traceback.format_exc()))
        except OSError:  # the parent has stopped listening: nobody to tell
            pass
    finally:
        control.close()
        for sock in peers.values():
            sock.close()


class WorkerPoolRunner:
    """One forked worker per shard, meshed to each other, driven over control pipes."""

    def __init__(self, factory, params, shard_ids, plan):
        if not fork_available():
            raise ValueError(
                "workers >= 2 need the 'fork' start method, which this platform lacks"
            )
        context = multiprocessing.get_context("fork")
        self._shard_ids = list(shard_ids)
        count = len(self._shard_ids)
        mesh = {}
        for low in range(count):
            for high in range(low + 1, count):
                mesh[low, high], mesh[high, low] = socket.socketpair()
        self._conns = []
        self._procs = []
        try:
            for index in range(count):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_shard_worker_main,
                    args=(child_conn, mesh, index, factory, params, self._shard_ids, plan),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(process)
        finally:
            # Every end now lives in the worker that owns it, and only there.
            for sock in mesh.values():
                sock.close()

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
        lost = False
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
                lost = lost or status == "lost"
                replies[index] = value
        if lost:  # pragma: no cover - a worker's own code raised ConnectionError
            raise RuntimeError("a shard worker lost a peer that neither failed nor died")
        return [replies[index] for index in range(len(self._conns))]

    def run_to(self, until):
        return self._call("run_to", until)[0]  # every worker stepped the same barriers

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

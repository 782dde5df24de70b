"""The host-speed reference loop.

The reference box is a shared 2-vCPU VM whose speed swings by 30-100 %
over seconds (the same pure-Python loop takes 10.5 ms or 13.3 ms for
tens of seconds at a time; a ring_n32 op 31 ms or 50 ms), far beyond
any regression bound. A wall time measured there says as much about the
neighbours as about the program, so every end-to-end time is reported
*at reference speed*: the wall time, divided by how long this loop took
next to it, times :data:`NOMINAL_S`. On a quiet reference box the loop
takes about ``NOMINAL_S`` and the correction is about 1. The raw wall
times are kept beside the corrected ones in every result.

The loop does what the simulator does — heap pushes and pops of tuples,
dict lookups, attribute updates on slotted objects, pointer chasing over
a few MB — and imports nothing from the program it calibrates. It runs
twice per call: the first pass finds the caches as the workload left
them, the second finds them warm, and the call returns their mean; over
400 s traces that mean tracked ring_n32, scale_n1024 and campaign_mixed
ops better than either pass alone.
"""

import heapq
import threading
import time

#: Seconds one call takes at reference speed.
NOMINAL_S = 0.00125


class _Node:
    __slots__ = ("key", "value", "peer")

    def __init__(self, key):
        self.key = key
        self.value = 0
        self.peer = None


class Probe:
    """``probe()`` returns the seconds one reference call took just now."""

    def __init__(self, n_nodes=20000, steps=2000):
        self._steps = steps
        self._n = n_nodes
        self._nodes = [_Node(index) for index in range(n_nodes)]
        for index, node in enumerate(self._nodes):
            node.peer = self._nodes[(index * 7919 + 13) % n_nodes]
        self._table = {index: self._nodes[(index * 31) % n_nodes] for index in range(n_nodes)}

    def _pass(self):
        heap = []
        push, pop = heapq.heappush, heapq.heappop
        table, n_nodes = self._table, self._n
        node = self._nodes[0]
        total = 0
        for step in range(self._steps):
            node = node.peer
            node.value += 1
            push(heap, (node.value * 0.001 + step, step, node))
            total += table[(node.key * 17 + step) % n_nodes].value
            if step & 3 == 3:
                total += pop(heap)[1]
        return total

    def __call__(self):
        started = time.perf_counter()
        self._pass()
        self._pass()
        return (time.perf_counter() - started) / 2.0


def at_reference_speed(seconds, probe_seconds):
    """``seconds`` of wall time, had the host run at reference speed."""
    return seconds * NOMINAL_S / probe_seconds


class Sampler(threading.Thread):
    """Host speed sampled every 50 ms while an op keeps every vCPU busy.

    A ``shard_n256_w2`` op runs 2.5 s on both vCPUs in worker processes
    while the driver waits, so probes before and after it miss what the
    host did meanwhile; this thread probes all along, competing with the
    workers as they compete with each other, and the op is corrected by
    the mean of the samples taken while it ran. Over a 400 s trace that
    brought the quartile spread of 10 s windows from 0.26 (raw) to
    0.12-0.16; probes between ops made it worse. (For ``cli_cold``,
    whose children run one at a time, probes between ops did better.)
    """

    def __init__(self, interval=0.05):
        super().__init__(daemon=True)
        self._probe = Probe()
        self._interval = interval
        self._halt = threading.Event()
        self._samples = []

    def run(self):
        while not self._halt.is_set():
            taken = self._probe()
            self._samples.append((time.perf_counter(), taken))
            self._halt.wait(self._interval)

    def stop(self):
        self._halt.set()
        self.join()

    def between(self, started, ended):
        """Mean probe seconds over ``[started, ended]``; None without samples."""
        inside = [taken for when, taken in self._samples if started <= when <= ended]
        return sum(inside) / len(inside) if inside else None

"""The sharded kernel: worlds that share nothing, run side by side.

The scale tier's cells share nothing — no frame crosses a cell — so a
run splits into *worlds*, each holding one shard's cells
(:class:`repro.net.partition.ShardPlan`), and each world runs alone to
the horizon. Determinism needs no barrier: a cell's events are the same
whatever else its world holds, so every grouping of cells into worlds —
one serial world, N in process, N forked workers — yields the same
per-cell artifacts, and :mod:`repro.sim.shard.merge` combines them.

Worlds are built by a plain callable ``factory(params, shard_id)`` — a
forked worker inherits it and builds its world after the fork instead
of unpickling a live object graph — and provide ``advance(until)`` and
``artifacts()``. A run may be split into many :meth:`ShardedKernel.run`
calls with live work scheduled in between.
"""


class InProcessRunner:
    """The worlds of ``shard_ids``, built and stepped in the calling process.

    The in-process kernel builds one over every shard; a forked worker
    builds one over its own shard, so the step is written once.
    """

    def __init__(self, factory, params, shard_ids):
        self._worlds = [factory(params, shard_id) for shard_id in shard_ids]

    def run_to(self, until):
        for world in self._worlds:
            world.advance(until)

    def collect(self):
        return [world.artifacts() for world in self._worlds]

    def close(self):
        pass


class ShardedKernel:
    """Drives one sharded run: build, run every world, collect artifacts.

    ``workers`` counts worker *processes*: 0 (or a single-shard plan)
    runs every world in-process — the serial run — while ``workers >= 2``
    forks one worker per shard (capped at the shard count), which needs
    the ``fork`` start method. ``epochs`` counts :meth:`run` calls, each
    one step of every world.
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

            self._runner = WorkerPoolRunner(self.factory, self.params, shard_ids)
            self.workers = len(shard_ids)
        else:
            self._runner = InProcessRunner(self.factory, self.params, shard_ids)
        return self

    def run(self, until):
        """Advance every world to ``until``."""
        if self._runner is None:
            self.start()
        self.now = float(until)
        self._runner.run_to(self.now)
        self.epochs += 1
        return self.now

    def collect(self):
        """Per-shard artifact dicts, in shard order."""
        return self._runner.collect()

    def close(self):
        """Shut worker processes down (no-op for in-process runs)."""
        if self._runner is not None:
            self._runner.close()
            self._runner = None

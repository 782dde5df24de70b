"""The sharded run: worlds that share nothing, each run alone to the horizon.

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
``artifacts()``.
"""


def run_world(factory, params, shard, until):
    """Build one shard's world, advance it to ``until``; its artifacts."""
    world = factory(params, shard)
    world.advance(until)
    return world.artifacts()


def run_shards(plan, factory, params, until, workers=0):
    """``(artifacts in shard order, worker processes used)`` of one run to ``until``.

    ``workers`` below 2, or a single-shard plan, runs every world in
    process, one after another — the serial run. ``workers >= 2`` forks
    one worker per shard (:mod:`repro.sim.shard.pool`), which needs the
    ``fork`` start method.
    """
    shards = plan.shards()
    if workers >= 2 and len(shards) >= 2:
        from repro.sim.shard.pool import run_forked

        return run_forked(factory, params, shards, until), len(shards)
    return [run_world(factory, params, shard, until) for shard in shards], 0

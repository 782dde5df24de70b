"""The multi-core sharded simulation kernel.

The topology is partitioned into LAN-segment cells grouped onto
shards; each shard runs its own :class:`~repro.sim.simulation.Simulation`
(on a worker process when parallel) straight to the horizon, because
cells share nothing. The merge rule — ``(time, cell, per-cell order)``
— makes every observable artifact byte-identical to the one-world
serial run. See DESIGN.md §10.
"""

from repro.sim.shard.kernel import ShardedKernel
from repro.sim.shard.merge import merge_artifacts, merge_trace

__all__ = ["ShardedKernel", "merge_artifacts", "merge_trace"]

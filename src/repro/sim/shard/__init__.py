"""The sharded simulation: one scale-tier run split into worlds of cells.

The topology is partitioned into LAN-segment cells grouped onto
shards; :func:`run_shards` builds each shard's world (on a forked
worker when parallel) and runs it straight to the horizon, because
cells share nothing. Each world hashes its own cells' traces, so every
observable artifact of the merge is byte-identical to the one-world
serial run. See DESIGN.md §10.
"""

from repro.sim.shard.kernel import run_shards
from repro.sim.shard.merge import merge_artifacts

__all__ = ["merge_artifacts", "run_shards"]

"""Topology partitioning for the sharded simulation kernel.

The scale tier's cluster decomposes along LAN segments: a segment is
one LAN and one paper cluster (IP takeover is an ARP spoof, and ARP
reaches one broadcast domain), and every frame — heartbeat, beacon,
ARP, flow — stays inside its segment. So each segment is its own
*cell* — a LAN plus its hosts — that shares nothing with any other,
and the sharded kernel (:mod:`repro.sim.shard`) runs groups of cells
(*shards*) as independent worlds, on separate worker processes when
asked.

:class:`ShardPlan` is the deterministic cell→shard assignment.
"""

#: The latency of the routed path between two cells' LANs, seconds.
#: No simulated frame takes it, since no frame crosses a cell: it is
#: the modelled data centre's, recorded beside a sharded run's results.
DEFAULT_INTER_LATENCY = 0.025


class ShardPlan:
    """Deterministic assignment of ``n_cells`` cells to ``n_shards`` shards.

    Cells are split into contiguous balanced runs (shard 0 gets the
    lowest-numbered cells). Contiguity keeps a shard's cells adjacent
    in the address plan; balance keeps worker load even.
    """

    def __init__(self, n_cells, n_shards):
        n_cells = int(n_cells)
        n_shards = int(n_shards)
        if n_cells < 1:
            raise ValueError("n_cells must be >= 1, got {}".format(n_cells))
        if not 1 <= n_shards <= n_cells:
            raise ValueError(
                "n_shards must be in [1, {}], got {}".format(n_cells, n_shards)
            )
        self.n_cells = n_cells
        self.n_shards = n_shards
        base, extra = divmod(n_cells, n_shards)
        self._cells_of = []
        start = 0
        for shard in range(n_shards):
            width = base + (1 if shard < extra else 0)
            self._cells_of.append(tuple(range(start, start + width)))
            start += width

    def cells_of(self, shard):
        """Tuple of cell ids owned by ``shard``."""
        return self._cells_of[shard]

    def shards(self):
        """All shard ids."""
        return tuple(range(self.n_shards))

    def __repr__(self):
        return "ShardPlan({} cells over {} shards)".format(self.n_cells, self.n_shards)

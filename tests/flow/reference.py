"""The per-pool scalar tick, kept as the oracle of the demand-class tick.

:class:`ReferenceEngine` is a :class:`~repro.flow.engine.FlowEngine`
whose tick advances every pool on its own: one floor/carry step and one
goodput product per pool, then accounting over the pools that lost
something. It is the pure-python loop the engine ran before pools were
grouped into demand classes, so a run through it is what the engine's
fingerprint, metrics and ``flow/loss`` records must equal bit for bit.
Its resolution is the obvious one too: every VIP again once any resolver
moved, and every tick while a pool is gated.
"""

import math

from repro.flow import FlowEngine


class ReferenceEngine(FlowEngine):
    """Advances each pool separately (the slow, obvious way)."""

    def _compile(self):
        self._resolvers = []
        self._group_keys = []
        self._group_pools = []
        group_index = {}
        pool_group = []
        for pool in self.pools:
            resolver = pool.resolver if pool.resolver is not None else self.resolver
            key = (id(resolver), pool.vip)
            index = group_index.get(key)
            if index is None:
                index = len(self._group_keys)
                group_index[key] = index
                self._group_keys.append((resolver, pool.vip))
                self._group_pools.append([])
                if resolver not in self._resolvers:
                    self._resolvers.append(resolver)
            self._group_pools[index].append(len(pool_group))
            pool_group.append(index)
        self._pool_group = pool_group
        self._kept = None
        n = len(self.pools)
        self._demand = [pool.users * pool.rate for pool in self.pools]
        self._carry = [pool.carry for pool in self.pools]
        self._c_offered = [0] * n
        self._c_served = [0] * n
        self._base_offered = [pool.offered for pool in self.pools]
        self._base_served = [pool.served for pool in self.pools]
        self._compiled = True

    def _flush_carry(self):
        if not self._compiled:
            return
        for index, pool in enumerate(self.pools):
            pool.carry = self._carry[index]
            pool.offered = self._base_offered[index] + self._c_offered[index]
            pool.served = self._base_served[index] + self._c_served[index]
            pool.lost = pool.offered - pool.served

    def _on_tick(self):
        if not self.pools:
            return
        if not self._compiled:
            self._compile()
        self.ticks += 1
        self._m_ticks.inc()
        factors, reasons = self._resolve_groups()
        offered, served = self._advance(factors)
        self._account(offered, served, reasons)

    def _resolve_groups(self):
        unchanged = all([resolver.begin_tick() for resolver in self._resolvers])
        if unchanged and self._kept is not None:
            return self._kept
        group_results = [resolver.resolve(vip) for resolver, vip in self._group_keys]
        factors = []
        reasons = []
        gated = False
        for pool, group in zip(self.pools, self._pool_group):
            factor, reason, owner = group_results[group]
            if pool.require is not None:
                gated = True
                if factor > 0.0 and (owner is None or not pool.require(owner)):
                    factor, reason = 0.0, "no_route"
            factors.append(factor)
            reasons.append(reason)
        self._kept = None if gated else (factors, reasons)
        return factors, reasons

    def _advance(self, factors):
        tick = self.tick
        offered = [0] * len(self.pools)
        served = [0] * len(self.pools)
        for index in range(len(self.pools)):
            raw = self._demand[index] * tick + self._carry[index]
            offered_i = math.floor(raw)
            self._carry[index] = raw - offered_i
            served_i = math.floor(offered_i * factors[index])
            offered[index] = offered_i
            served[index] = served_i
            self._c_offered[index] += offered_i
            self._c_served[index] += served_i
        return offered, served

    def _account(self, offered, served, reasons):
        lost_groups = {}
        for index, count in enumerate(offered):
            if count == served[index]:
                continue
            lost_i = count - served[index]
            reason = reasons[index]
            if reason is None:
                reason = "degraded"
            self.lost_by_reason[reason] = self.lost_by_reason.get(reason, 0) + lost_i
            pool = self.pools[index]
            pool.lost_by_reason[reason] = pool.lost_by_reason.get(reason, 0) + lost_i
            counter = self._m_lost.get(reason)
            if counter is None:
                counter = self.sim.metrics.counter(
                    "flow.requests_lost", node=self.name, reason=reason
                )
                self._m_lost[reason] = counter
            counter.inc(lost_i)
            lost_groups.setdefault(self._pool_group[index], reason)
        offered_total = sum(offered)
        served_total = sum(served)
        self.requests_offered += offered_total
        self.requests_served += served_total
        self.requests_lost += offered_total - served_total
        if offered_total:
            self._m_offered.inc(offered_total)
        if served_total:
            self._m_served.inc(served_total)
        for group in sorted(lost_groups):
            pools = self._group_pools[group]
            group_offered = sum(offered[index] for index in pools)
            group_served = sum(served[index] for index in pools)
            _resolver, vip = self._group_keys[group]
            self.trace(
                "flow",
                "loss",
                vip=str(vip),
                offered=group_offered,
                served=group_served,
                lost=group_offered - group_served,
                reason=lost_groups[group],
            )

    def reset_counters(self):
        super().reset_counters()
        if self._compiled:
            n = len(self.pools)
            self._c_offered = [0] * n
            self._c_served = [0] * n
            self._base_offered = [0] * n
            self._base_served = [0] * n

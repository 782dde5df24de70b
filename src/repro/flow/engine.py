"""The flow engine: batched, tick-driven aggregate traffic accounting.

One :class:`FlowEngine` advances every attached
:class:`~repro.flow.pool.FlowPool` on a coarse periodic tick. A tick is
one vector pass over the pools, never O(users) — a million simulated
clients cost exactly as much as their pool count — and its Python-level
work is proportional to what changed: VIPs are resolved again only when
a resolver reports that its inputs moved, and accounting visits only
the pools that lost something. That is what lets the flow plane coexist
with the exact per-packet prober at 10^5–10^7 users without melting the
event loop.

The per-tick inner loop (demand accrual, carry propagation, goodput
scaling) runs over parallel arrays and has two backends: numpy-vectorized
where :func:`load_numpy` finds numpy, pure python where it does not.
Both perform the *same float64 operations in the same element order*,
so a run's request totals — and therefore its fingerprints, metrics
and trace — are byte-identical whichever backend executed it (the
determinism suite asserts exactly that). All tick state hangs off the
engine instance and the engine draws no randomness, so two engines in
two Simulations never share state.
"""

import functools
import math

from repro.flow.pool import FlowPool
from repro.sim.process import Process


@functools.lru_cache(maxsize=None)
def load_numpy():
    """numpy, or None where it is absent; imported at the first call, so a
    command that builds no engine never pays for it, and a parent calls this
    before it forks engine-building workers, which then inherit the module."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class FlowEngine(Process):
    """Advances client pools in batches on scheduler ticks."""

    def __init__(self, sim, resolver=None, tick=0.05, name="clients"):
        super().__init__(sim, "flow@{}".format(name))
        if tick <= 0.0:
            raise ValueError("tick must be positive, got {}".format(tick))
        self._numpy = load_numpy()
        self.resolver = resolver
        self.tick = float(tick)
        self.use_numpy = self._numpy is not None
        self.pools = []
        self.ticks = 0
        self.requests_offered = 0
        self.requests_served = 0
        self.requests_lost = 0
        self.lost_by_reason = {}
        self._compiled = False
        self._timer = self.periodic(self._on_tick, self.tick, name="tick")
        metrics = sim.metrics
        self._m_ticks = metrics.counter("flow.ticks", node=self.name)
        self._m_offered = metrics.counter("flow.requests_offered", node=self.name)
        self._m_served = metrics.counter("flow.requests_served", node=self.name)
        self._m_lost = {}

    # ------------------------------------------------------------------
    # pool management

    def add_pool(self, pool):
        """Attach a pool; takes effect from the next tick."""
        if pool.resolver is None and self.resolver is None:
            raise ValueError("pool {} has no resolver and the engine has no default".format(pool.name))
        # Flush before invalidating: the arrays hold every attached
        # pool's carry and its counts since the last flush, and the
        # recompile reads them back from the pool objects.
        self._flush_carry()
        self.pools.append(pool)
        self._compiled = False
        return pool

    def add_uniform_pools(
        self, vips, users, rate=1.0, label="pool-{}", offset=0, of=None, resolver=None
    ):
        """Spread ``users`` evenly across VIPs, one pool per VIP; returns the pools.

        The first ``users mod n`` VIPs carry one extra user; VIPs left
        with none get no pool. ``vips`` may be a contiguous slice of a
        larger list — ``of`` is then the whole list's length and
        ``offset`` the slice's position in it — so a partitioned
        cluster names and sizes its pools exactly as the whole would.
        ``resolver`` overrides the engine's for these pools.
        """
        share, remainder = divmod(int(users), len(vips) if of is None else int(of))
        pools = []
        for index, vip in enumerate(vips, offset):
            count = share + (1 if index < remainder else 0)
            if count:
                pool = FlowPool(label.format(index), vip, count, rate=rate, resolver=resolver)
                pools.append(self.add_pool(pool))
        return pools

    def total_users(self):
        """Sum of users across attached pools."""
        return sum(pool.users for pool in self.pools)

    def start(self, groups=None):
        """Begin ticking every ``tick`` simulated seconds.

        The ``start`` trace record states the pools and their users;
        ``groups`` (``{label: pools}``) states them per label instead,
        one record each naming its label as ``group``.
        """
        for label, pools in (groups or {None: self.pools}).items():
            named = {} if label is None else {"group": label}
            users = sum(pool.users for pool in pools)
            self.trace("flow", "start", pools=len(pools), users=users, tick=self.tick, **named)
        self._timer.start(first_delay=self.tick)

    def stop_flow(self):
        """Stop ticking (totals and carries keep their values)."""
        self._timer.stop()

    # ------------------------------------------------------------------
    # compiled per-pool arrays

    def _compile(self):
        """(Re)build the parallel arrays and resolution groups."""
        n = len(self.pools)
        demand = [pool.users * pool.rate for pool in self.pools]
        carry = [pool.carry for pool in self.pools]
        # Resolution groups: one resolver.resolve call per distinct
        # (resolver, vip) pair per tick, shared by every pool aimed at it.
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
        if self.use_numpy:
            numpy = self._numpy
            self._demand = numpy.array(demand, dtype=numpy.float64)
            self._carry = numpy.array(carry, dtype=numpy.float64)
            self._c_offered = numpy.zeros(n, dtype=numpy.int64)
            self._c_served = numpy.zeros(n, dtype=numpy.int64)
        else:
            self._demand = demand
            self._carry = list(carry)
            self._c_offered = [0] * n
            self._c_served = [0] * n
        self._base_offered = [pool.offered for pool in self.pools]
        self._base_served = [pool.served for pool in self.pools]
        self._compiled = True

    def _flush_carry(self):
        """Write array state back into the pool objects."""
        if not self._compiled:
            return
        for index, pool in enumerate(self.pools):
            pool.carry = float(self._carry[index])
            pool.offered = self._base_offered[index] + int(self._c_offered[index])
            pool.served = self._base_served[index] + int(self._c_served[index])
            pool.lost = pool.offered - pool.served

    # ------------------------------------------------------------------
    # the tick

    def _on_tick(self):
        if not self.pools:
            return
        if not self._compiled:
            self._compile()
        self.ticks += 1
        self._m_ticks.inc()
        factors, reasons = self._resolve_groups()
        if self.use_numpy:
            offered, served = self._advance_numpy(factors)
        else:
            offered, served = self._advance_python(factors)
        self._account(offered, served, reasons)

    def _resolve_groups(self):
        """Per-pool (factors, reasons) via one resolve per distinct VIP.

        Last tick's pair — factors already in the backend's vector
        type — is kept while every resolver's ``begin_tick()`` returns
        true, its promise that each ``resolve`` would answer as before.
        ``None`` (a resolver that makes no such promise) means resolve
        again; the list makes every resolver begin its tick either way.
        """
        unchanged = all([resolver.begin_tick() for resolver in self._resolvers])
        if unchanged and self._kept is not None:
            return self._kept
        group_results = []
        for resolver, vip in self._group_keys:
            factor, reason, owner = resolver.resolve(vip)
            group_results.append((factor, reason, owner))
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
        if self.use_numpy:
            factors = self._numpy.array(factors, dtype=self._numpy.float64)
        # A require gate reads state no resolver vouches for, so a
        # gated pool set is resolved afresh every tick.
        self._kept = None if gated else (factors, reasons)
        return factors, reasons

    def _advance_numpy(self, factors):
        numpy = self._numpy
        raw = self._demand * self.tick + self._carry
        offered_f = numpy.floor(raw)
        self._carry = raw - offered_f
        served_f = numpy.floor(offered_f * factors)
        offered = offered_f.astype(numpy.int64)
        served = served_f.astype(numpy.int64)
        self._c_offered += offered
        self._c_served += served
        return offered, served

    def _advance_python(self, factors):
        # The scalar mirror of _advance_numpy: identical float64 ops in
        # identical element order, so both backends produce bit-equal
        # carries and counts.
        tick = self.tick
        carry = self._carry
        demand = self._demand
        c_offered = self._c_offered
        c_served = self._c_served
        offered = [0] * len(self.pools)
        served = [0] * len(self.pools)
        for index in range(len(self.pools)):
            raw = demand[index] * tick + carry[index]
            offered_i = math.floor(raw)
            carry[index] = raw - offered_i
            served_i = math.floor(offered_i * factors[index])
            offered[index] = offered_i
            served[index] = served_i
            c_offered[index] += offered_i
            c_served[index] += served_i
        return offered, served

    def _account(self, offered, served, reasons):
        """Totals, per-reason metrics, and per-VIP loss trace records.

        Only pools that lost something are visited, in ascending pool
        order — the first-seen order of reasons and metric counters.
        """
        if self.use_numpy:
            offered_total = int(offered.sum())
            served_total = int(served.sum())
            lossy = self._numpy.flatnonzero(offered != served).tolist()
            if lossy:
                offered, served = offered.tolist(), served.tolist()
        else:
            offered_total = sum(offered)
            served_total = sum(served)
            lossy = [index for index, count in enumerate(offered) if count != served[index]]
        lost_groups = {}
        for index in lossy:
            lost_i = offered[index] - served[index]
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
        self.requests_offered += offered_total
        self.requests_served += served_total
        self.requests_lost += offered_total - served_total
        if offered_total:
            self._m_offered.inc(offered_total)
        if served_total:
            self._m_served.inc(served_total)
        for group in sorted(lost_groups):
            # The record covers every pool aimed at the VIP, lossy or not.
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

    # ------------------------------------------------------------------
    # read side

    def reset_counters(self):
        """Zero every request total (carries and tick phase survive).

        Call after the cluster settles to scope totals to the
        measurement window — boot-time churn loss is real but is not
        part of a failover's request bill.
        """
        self._flush_carry()
        self.ticks = 0
        self.requests_offered = 0
        self.requests_served = 0
        self.requests_lost = 0
        self.lost_by_reason = {}
        for pool in self.pools:
            pool.reset_counters()
        if self._compiled:
            n = len(self.pools)
            if self.use_numpy:
                self._c_offered = self._numpy.zeros(n, dtype=self._numpy.int64)
                self._c_served = self._numpy.zeros(n, dtype=self._numpy.int64)
            else:
                self._c_offered = [0] * n
                self._c_served = [0] * n
            self._base_offered = [0] * n
            self._base_served = [0] * n

    def goodput_pct(self):
        """Served fraction of offered requests so far, in percent."""
        if not self.requests_offered:
            return None
        return 100.0 * self.requests_served / self.requests_offered

    def totals(self):
        """JSON-stable engine totals (integers, sorted reasons)."""
        return {
            "ticks": self.ticks,
            "users": self.total_users(),
            "offered": self.requests_offered,
            "served": self.requests_served,
            "lost": self.requests_lost,
            "lost_by_reason": {
                reason: self.lost_by_reason[reason]
                for reason in sorted(self.lost_by_reason)
            },
        }

    def fingerprint(self):
        """Totals plus per-pool state — the replay-comparison artifact."""
        self._flush_carry()
        payload = self.totals()
        payload["tick"] = self.tick
        payload["pools"] = [pool.to_dict() for pool in self.pools]
        return payload

    def __repr__(self):
        return "FlowEngine({}, {} pools, {} users, tick={})".format(
            self.name, len(self.pools), self.total_users(), self.tick
        )

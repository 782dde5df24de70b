"""The flow engine: batched, tick-driven aggregate traffic accounting.

One :class:`FlowEngine` advances every attached
:class:`~repro.flow.pool.FlowPool` on a coarse periodic tick. A tick is
never O(users) — a million simulated clients cost exactly as much as
their demand classes — and its Python-level work is proportional to
what changed: only a resolver that reports its inputs moved resolves
its own VIPs again, and accounting visits only the pools whose goodput
factor is not 1.0. That is what lets the flow plane coexist with the
exact per-packet prober at 10^5–10^7 users without melting the event
loop.

A pool's offered requests per tick (``raw = demand * tick + carry``,
``offered = floor(raw)``, ``carry = raw - offered``) never read its
goodput factor, so pools that share ``(users * rate, carry)`` offer
bit-identical counts forever: they form one *demand class*, and a tick
does one floor/carry step per class (``add_uniform_pools`` makes at
most two). A pool's ledger is its class's offered count minus its own
losses. All tick state hangs off the engine instance and the engine
draws no randomness, so two engines in two Simulations never share
state.
"""

import math

from repro.flow.pool import FlowPool
from repro.sim.process import Process


class FlowEngine(Process):
    """Advances client pools in batches on scheduler ticks."""

    def __init__(self, sim, resolver=None, tick=0.05, name="clients"):
        super().__init__(sim, "flow@{}".format(name))
        if not 0.0 < tick < math.inf:
            raise ValueError("tick must be positive and finite, got {}".format(tick))
        self.resolver = resolver
        self.tick = float(tick)
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
        # Flush before invalidating: the classes hold every attached
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
    # demand classes and resolution groups

    def _compile(self):
        """(Re)build the demand classes and resolution groups."""
        # Demand classes: one per distinct (users * rate, carry).
        class_index = {}
        self._class_demand = []
        self._class_carry = []
        self._class_size = []
        self._pool_class = []
        for pool in self.pools:
            demand = pool.users * pool.rate
            key = (demand, pool.carry)
            index = class_index.get(key)
            if index is None:
                index = class_index[key] = len(self._class_demand)
                self._class_demand.append(demand)
                self._class_carry.append(pool.carry)
                self._class_size.append(0)
            self._class_size[index] += 1
            self._pool_class.append(index)
        # Offered per class since the last flush, and lost per pool.
        self._class_offered = [0] * len(self._class_demand)
        self._pool_lost = {}
        # Resolution groups: one resolve call per distinct (resolver,
        # vip) pair, shared by every pool aimed at it; ``_cells`` pairs
        # each resolver with its groups, in first-seen order.
        self._group_vips = []
        self._group_pools = []
        self._pool_group = []
        group_index = {}
        self._cells = {}
        for index, pool in enumerate(self.pools):
            resolver = pool.resolver if pool.resolver is not None else self.resolver
            key = (id(resolver), pool.vip)
            group = group_index.get(key)
            if group is None:
                group = group_index[key] = len(self._group_vips)
                self._group_vips.append(pool.vip)
                self._group_pools.append([])
                self._cells.setdefault(id(resolver), (resolver, []))[1].append(group)
            self._group_pools[group].append(index)
            self._pool_group.append(group)
        # Kept answers: lossy pools' (factor, reason), their sorted list
        # (None until a first resolve), and gated pools' (factor, owner).
        self._gates = {i: None for i, pool in enumerate(self.pools) if pool.require is not None}
        self._lossy = {}
        self._degraded = None
        self._compiled = True

    def _flush_carry(self):
        """Write the classes' carries and counts back into the pool objects."""
        if not self._compiled:
            return
        lost = self._pool_lost
        for index, pool in enumerate(self.pools):
            cls = self._pool_class[index]
            pool.carry = self._class_carry[cls]
            pool.offered += self._class_offered[cls]
            pool.lost += lost.get(index, 0)
            pool.served = pool.offered - pool.lost
        self._class_offered = [0] * len(self._class_offered)
        self._pool_lost = {}

    # ------------------------------------------------------------------
    # the tick

    def _on_tick(self):
        if not self.pools:
            return
        if not self._compiled:
            self._compile()
        self.ticks += 1
        self._m_ticks.inc()
        degraded = self._resolve_groups()
        tick = self.tick
        carry = self._class_carry
        cumulative = self._class_offered
        sizes = self._class_size
        offered_now = []
        offered_total = 0
        for cls, demand in enumerate(self._class_demand):
            raw = demand * tick + carry[cls]
            offered = math.floor(raw)
            carry[cls] = raw - offered
            offered_now.append(offered)
            cumulative[cls] += offered
            offered_total += offered * sizes[cls]
        self._account(offered_now, offered_total, degraded)

    def _resolve_groups(self):
        """``[(pool index, (factor, reason))]`` for every pool whose factor
        is not 1.0, in ascending pool order, via one resolve per distinct VIP.

        Every resolver begins its tick; one whose ``begin_tick()`` returns
        true (its promise that each ``resolve`` answers as before) keeps
        its answers, any other (``None`` promises nothing) resolves its
        own VIPs again. A recompile resolves every VIP once. A ``require``
        gate reads state no resolver vouches for, so it runs every tick.
        """
        fresh = self._degraded is None
        moved = [cell for cell in self._cells.values() if not cell[0].begin_tick() or fresh]
        lossy, gates = self._lossy, self._gates
        for resolver, groups in moved:
            for group in groups:
                factor, reason, owner = resolver.resolve(self._group_vips[group])
                for index in self._group_pools[group]:
                    if index in gates:
                        gates[index] = (factor, owner)
                    if factor != 1.0:
                        lossy[index] = (factor, reason)
                    else:
                        lossy.pop(index, None)
        if moved:
            self._degraded = sorted(lossy.items())
        closed = {}
        for index, (factor, owner) in gates.items():
            if factor > 0.0 and (owner is None or not self.pools[index].require(owner)):
                closed[index] = (0.0, "no_route")
        return sorted({**lossy, **closed}.items()) if closed else self._degraded

    def _account(self, offered_now, offered_total, degraded):
        """Totals, per-reason metrics, and per-VIP loss trace records.

        Only pools whose factor is not 1.0 are visited, in ascending pool
        order — the first-seen order of reasons and metric counters.
        """
        pool_class = self._pool_class
        lost_total = 0
        lost_groups = {}
        for index, (factor, reason) in degraded:
            offered = offered_now[pool_class[index]]
            lost_i = offered - math.floor(offered * factor)
            if not lost_i:
                continue
            lost_total += lost_i
            self._pool_lost[index] = self._pool_lost.get(index, 0) + lost_i
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
            group = self._pool_group[index]
            if group in lost_groups:
                lost_groups[group][1] += lost_i
            else:
                lost_groups[group] = [reason, lost_i]
        served_total = offered_total - lost_total
        self.requests_offered += offered_total
        self.requests_served += served_total
        self.requests_lost += lost_total
        if offered_total:
            self._m_offered.inc(offered_total)
        if served_total:
            self._m_served.inc(served_total)
        for group in sorted(lost_groups):
            # The record covers every pool aimed at the VIP, lossy or not.
            reason, lost = lost_groups[group]
            offered = sum(offered_now[pool_class[index]] for index in self._group_pools[group])
            self.trace(
                "flow",
                "loss",
                vip=str(self._group_vips[group]),
                offered=offered,
                served=offered - lost,
                lost=lost,
                reason=reason,
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

"""Unit tests for FlowPool and the FlowEngine tick machinery."""

import math

import pytest

from repro.flow import DirectResolver, FlowEngine, FlowPool
from repro.net.host import Host
from repro.net.lan import Lan
from repro.sim.simulation import Simulation


class StaticResolver:
    """Test double: serve every VIP at a fixed factor."""

    def __init__(self, factor=1.0, reason=None, owner=None):
        self.factor = factor
        self.reason = reason
        self.owner = owner
        self.ticks = 0

    def begin_tick(self):
        self.ticks += 1

    def resolve(self, vip):
        return self.factor, self.reason, self.owner


def build_engine(factor=1.0, reason=None, owner=None, engine_class=FlowEngine, **kwargs):
    sim = Simulation(seed=1)
    resolver = StaticResolver(factor, reason, owner)
    engine = engine_class(sim, resolver=resolver, **kwargs)
    return sim, engine, resolver


def test_pool_validates_inputs():
    with pytest.raises(ValueError):
        FlowPool("p", "10.0.0.1", users=-1)
    with pytest.raises(ValueError):
        FlowPool("p", "10.0.0.1", users=10, rate=-0.5)


@pytest.mark.parametrize(
    "users, rate",
    [(2.5, 1.0), (math.inf, 1.0), (10, math.nan), (10, math.inf)],
    ids=["users=2.5", "users=inf", "rate=nan", "rate=inf"],
)
def test_pool_rejects_what_it_cannot_count(users, rate):
    # Counted, a nan rate floors to garbage and 2.5 users truncate to 2.
    with pytest.raises(ValueError):
        FlowPool("p", "10.0.0.1", users=users, rate=rate)


@pytest.mark.parametrize("tick", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_tick_is_rejected(tick):
    with pytest.raises(ValueError):
        FlowEngine(Simulation(seed=1), resolver=StaticResolver(), tick=tick)


def test_pool_without_any_resolver_is_rejected():
    sim = Simulation(seed=1)
    engine = FlowEngine(sim)
    with pytest.raises(ValueError):
        engine.add_pool(FlowPool("p", "10.0.0.1", users=10))


def test_invalid_tick_is_rejected():
    sim = Simulation(seed=1)
    with pytest.raises(ValueError):
        FlowEngine(sim, resolver=StaticResolver(), tick=0.0)


def test_offered_total_is_exact_over_time():
    # 1000 users * 0.7 req/s * 10 s = 7000 requests, carry-exact even
    # though per-tick demand (35.0) happens to be integral here and
    # fractional in the next case.
    sim, engine, _ = build_engine(tick=0.05)
    pool = engine.add_pool(FlowPool("p", "10.0.0.1", users=1000, rate=0.7))
    engine.start()
    sim.run(until=10.01)
    engine.fingerprint()
    assert pool.offered == 7000
    assert pool.served == 7000
    assert pool.lost == 0


def test_fractional_demand_carries_between_ticks():
    # 7 users * 1 req/s * 0.05 s = 0.35 per tick: requests only emerge
    # as the carry accumulates, but the long-run total stays exact.
    sim, engine, _ = build_engine(tick=0.05)
    pool = engine.add_pool(FlowPool("p", "10.0.0.1", users=7, rate=1.0))
    engine.start()
    sim.run(until=20.01)
    engine.fingerprint()
    assert pool.offered == 140


def test_add_pool_mid_run_keeps_ledgers_and_carries(engine_class):
    # The classes hold each pool's carry and its counts since the last
    # flush; adding a pool must flush them before it invalidates them.
    sim, engine, _ = build_engine(tick=0.05, engine_class=engine_class)
    first = engine.add_pool(FlowPool("a", "10.0.0.1", users=103))
    small = engine.add_pool(FlowPool("s", "10.0.0.2", users=7))
    engine.start()
    sim.run(until=1.01)
    engine.add_pool(FlowPool("b", "10.0.0.3", users=10))
    sim.run(until=2.01)
    engine.fingerprint()
    assert first.offered == 206
    sim.run(until=20.01)
    engine.fingerprint()
    totals = engine.totals()
    assert sum(pool.offered for pool in engine.pools) == totals["offered"]
    assert sum(pool.served for pool in engine.pools) == totals["served"]
    # 0.35 requests per tick: exact only if the carry survived too.
    assert small.offered == 140


def test_blackhole_counts_lost_with_reason():
    sim, engine, _ = build_engine(factor=0.0, reason="no_owner")
    engine.add_pool(FlowPool("p", "10.0.0.1", users=100, rate=1.0))
    engine.start()
    sim.run(until=1.01)
    totals = engine.totals()
    assert totals["served"] == 0
    assert totals["lost"] == totals["offered"] > 0
    assert totals["lost_by_reason"] == {"no_owner": totals["lost"]}


def test_degraded_factor_scales_goodput():
    sim, engine, _ = build_engine(factor=0.5, reason="degraded")
    engine.add_pool(FlowPool("p", "10.0.0.1", users=1000, rate=1.0))
    engine.start()
    sim.run(until=2.01)
    totals = engine.totals()
    assert totals["offered"] == 2000
    assert totals["served"] == 1000
    assert engine.goodput_pct() == 50.0


def test_require_gate_converts_served_to_no_route():
    sim = Simulation(seed=1)
    owner = object()
    resolver = StaticResolver(1.0, None, owner)
    engine = FlowEngine(sim, resolver=resolver)
    engine.add_pool(
        FlowPool("p", "10.0.0.1", users=100, rate=1.0, require=lambda host: False)
    )
    engine.start()
    sim.run(until=1.01)
    totals = engine.totals()
    assert totals["served"] == 0
    assert totals["lost_by_reason"] == {"no_route": totals["lost"]}


def test_one_resolve_per_distinct_vip_per_tick():
    sim, engine, resolver = build_engine()
    calls = []
    original = resolver.resolve

    def counting(vip):
        calls.append(str(vip))
        return original(vip)

    resolver.resolve = counting
    engine.add_pool(FlowPool("a", "10.0.0.1", users=10))
    engine.add_pool(FlowPool("b", "10.0.0.1", users=10))
    engine.add_pool(FlowPool("c", "10.0.0.2", users=10))
    engine.start()
    sim.run(until=0.05)
    assert sorted(calls) == ["10.0.0.1", "10.0.0.2"]
    assert resolver.ticks == 1


def test_reset_counters_scopes_totals_but_keeps_carry():
    sim, engine, _ = build_engine(tick=0.05)
    pool = engine.add_pool(FlowPool("p", "10.0.0.1", users=7, rate=1.0))
    engine.start()
    sim.run(until=1.03)
    engine.reset_counters()
    carry_after_reset = pool.carry
    assert pool.offered == 0
    assert engine.totals()["offered"] == 0
    sim.run(until=21.03)
    engine.fingerprint()
    # 7 users over exactly 20 more seconds: the surviving carry keeps
    # the window total exact.
    assert pool.offered == 140
    assert 0.0 <= carry_after_reset < 1.0


def test_stop_flow_halts_ticking():
    sim, engine, _ = build_engine()
    engine.add_pool(FlowPool("p", "10.0.0.1", users=100))
    engine.start()
    sim.run(until=1.0)
    engine.stop_flow()
    before = engine.totals()["offered"]
    sim.run(until=2.0)
    assert engine.totals()["offered"] == before


def test_metrics_counters_land_in_totals():
    sim, engine, _ = build_engine(factor=0.0, reason="no_owner")
    engine.add_pool(FlowPool("p", "10.0.0.1", users=100))
    engine.start()
    sim.run(until=1.01)
    totals = sim.metrics.totals()
    assert totals["flow.ticks"] == 20
    assert totals["flow.requests_offered"] == 100
    assert totals["flow.requests_lost"] == 100
    assert "flow.requests_served" not in totals or totals["flow.requests_served"] == 0


def test_direct_resolver_follows_the_lans_bindings():
    sim = Simulation(seed=2)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    owner = Host(sim, "s0")
    owner.add_nic(lan, "10.0.0.1").bind_ip("10.0.0.100")
    second = Host(sim, "s1")
    second.add_nic(lan, "10.0.0.2")
    resolver = DirectResolver(lan)
    engine = FlowEngine(sim, resolver=resolver)
    engine.add_pool(FlowPool("p", "10.0.0.100", users=100, rate=1.0))
    engine.start()
    sim.run(until=1.0)
    assert engine.totals()["lost"] == 0
    owner.crash()
    sim.run(until=2.0)
    totals = engine.totals()
    assert totals["lost_by_reason"] == {"no_owner": totals["lost"]}
    assert totals["lost"] > 0
    # Rebinding the VIP to a live host ends the loss.
    second.nics[0].bind_ip("10.0.0.100")
    sim.run(until=3.0)
    assert engine.totals()["lost"] == totals["lost"]
    assert engine.totals()["served"] > totals["served"]


def test_uniform_pools_spread_users_with_remainder_first():
    _sim, engine, _ = build_engine()
    vips = ["10.0.0.{}".format(1 + i) for i in range(4)]
    engine.add_uniform_pools(vips, 10, rate=2.0)
    assert [(p.name, p.users, p.rate) for p in engine.pools] == [
        ("pool-0", 3, 2.0),
        ("pool-1", 3, 2.0),
        ("pool-2", 2, 2.0),
        ("pool-3", 2, 2.0),
    ]
    # Fewer users than VIPs: the empty VIPs get no pool at all.
    _sim, sparse, _ = build_engine()
    sparse.add_uniform_pools(vips, 2)
    assert [p.name for p in sparse.pools] == ["pool-0", "pool-1"]


def test_uniform_pools_over_slices_equal_the_whole():
    vips = ["10.0.0.{}".format(1 + i) for i in range(7)]
    _sim, whole, _ = build_engine()
    whole.add_uniform_pools(vips, 1000, label="pool-{:04d}")
    _sim, parts, _ = build_engine()
    for start, stop in ((0, 3), (3, 5), (5, 7)):
        parts.add_uniform_pools(
            vips[start:stop], 1000, label="pool-{:04d}", offset=start, of=len(vips)
        )
    shape = lambda engine: [(p.name, str(p.vip), p.users) for p in engine.pools]  # noqa: E731
    assert shape(parts) == shape(whole)
    assert whole.total_users() == 1000

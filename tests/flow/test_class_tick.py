"""The demand-class tick against the per-pool reference.

Pools that share ``(users * rate, carry)`` are advanced as one class;
:mod:`tests.flow.reference` advances every pool on its own. Over random
pool sets, gates, mid-run additions, counter resets and goodput factors
the two must leave the same fingerprint, the same ``flow.*`` metrics and
the same ``flow/loss`` records.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import FlowEngine, FlowPool
from repro.sim.simulation import Simulation
from tests.flow.reference import ReferenceEngine

VIPS = ["10.0.0.{}".format(100 + index) for index in range(5)]
OWNERS = [None, "a", "b"]
REASONS = [None, "no_owner", "stale_arp", "degraded"]


class TableResolver:
    """Answers from a table the script replaces; honest about changes."""

    def __init__(self, table, promise):
        self.table = table
        self.promise = promise  # False: begin_tick promises nothing (None)
        self.changed = True

    def begin_tick(self):
        unchanged, self.changed = not self.changed, False
        return unchanged if self.promise else None

    def resolve(self, vip):
        return self.table[str(vip)]


answers = st.tuples(
    st.sampled_from([0.0, 1.0, 1.0, 0.5, 0.25, 0.9, 1.0 / 3.0]),
    st.sampled_from(REASONS),
    st.sampled_from(OWNERS),
)
tables = st.fixed_dictionaries({vip: answers for vip in VIPS})
rates = st.sampled_from([0.0, 0.3, 0.7, 1.0, 2.5, 0.05])
#: Single pools often match a uniform share (7, 100, 489 users), so a
#: pool added mid-run with no carry meets a class of its demand that has one.
pools = st.tuples(
    st.sampled_from(VIPS),
    st.one_of(st.integers(0, 3000), st.sampled_from([7, 100, 489])),
    rates,
    st.booleans(),
)
uniform = st.tuples(st.one_of(st.integers(1, 10_007), st.sampled_from([36, 502, 2447])), rates)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.integers(1, 6)),
        st.tuples(st.just("table"), tables),
        st.tuples(st.just("add"), pools),
        # a pool with the users and rate of an attached one, carry 0.0
        st.tuples(st.just("twin"), st.integers(0, 50)),
        # the gates close on this owner: state no resolver vouches for
        st.tuples(st.just("fence"), st.sampled_from(OWNERS)),
        st.tuples(st.just("reset"), st.none()),
    ),
    max_size=12,
)


def play(engine_class, uniform, singles, first_table, script, promise, tick):
    sim = Simulation(seed=3)
    resolver = TableResolver(dict(first_table), promise)
    engine = engine_class(sim, resolver=resolver, tick=tick)
    fenced = [None]

    def gate(owner):
        return owner != fenced[0]

    def add(spec, index):
        vip, users, rate, gated = spec
        pool = FlowPool("p{}".format(index), vip, users, rate=rate, require=gate if gated else None)
        engine.add_pool(pool)

    for batch, (users, rate) in enumerate(uniform):
        engine.add_uniform_pools(VIPS, users, rate=rate, label="u{}-{{}}".format(batch))
    for index, spec in enumerate(singles):
        add(spec, index)
    engine.start()
    for number, (kind, value) in enumerate(script):
        if kind == "run":
            sim.run_for(tick * value)
        elif kind == "table":
            resolver.table = dict(value)
            resolver.changed = True
        elif kind == "add":
            add(value, len(singles) + number)
        elif kind == "twin":
            twin = engine.pools[value % len(engine.pools)]
            add((str(twin.vip), twin.users, twin.rate, False), len(singles) + number)
        elif kind == "fence":
            fenced[0] = value
        else:
            engine.reset_counters()
    sim.run_for(tick * 3)
    return {
        "fingerprint": json.dumps(engine.fingerprint(), sort_keys=True),
        "metrics": {
            name: value for name, value in sim.metrics.totals().items()
            if name.startswith("flow.")
        },
        "loss": [
            (record.time, record.source, record.details)
            for record in sim.trace.records
            if record.category == "flow" and record.event == "loss"
        ],
    }


@settings(max_examples=150, deadline=None)
@given(
    uniform=st.lists(uniform, min_size=1, max_size=3),
    singles=st.lists(pools, min_size=1, max_size=4),
    first_table=tables,
    script=steps,
    promise=st.booleans(),
    tick=st.sampled_from([0.05, 0.1, 0.013]),
)
def test_class_tick_matches_the_per_pool_reference(
    uniform, singles, first_table, script, promise, tick
):
    args = (uniform, singles, first_table, script, promise, tick)
    assert play(FlowEngine, *args) == play(ReferenceEngine, *args)


def test_a_million_users_over_2048_vips_compile_to_two_classes():
    sim = Simulation(seed=1)
    resolver = TableResolver({}, promise=True)
    resolver.resolve = lambda vip: (1.0, None, None)
    engine = FlowEngine(sim, resolver=resolver)
    vips = ["10.{}.{}.1".format(index // 256, index % 256) for index in range(2048)]
    engine.add_uniform_pools(vips, 1_000_000)
    engine.start()
    sim.run_for(0.051)
    assert len(engine.pools) == 2048
    # 576 pools of 489 users and 1472 of 488, each at 1 req/s.
    assert sorted(engine._class_demand) == [488.0, 489.0]
    assert engine.totals()["offered"] == 24 * 2048

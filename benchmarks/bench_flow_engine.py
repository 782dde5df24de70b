"""Wall-clock cost of the flow plane's pure-python fallback.

The flow engine's promise is that a million modeled clients cost
O(pools + VIPs) per tick, not O(users); ``repro bench`` records that
(``flow_engine_ticks`` in BENCH_kernel.json, at 10^5 and 10^6 users)
on the default numpy backend. What the trajectory does not time is the
advance path a numpy-less deployment pays, so this bench pins it.
"""

from repro.flow import FlowEngine, FlowPool
from repro.sim.simulation import Simulation


class _AlwaysServe:
    def begin_tick(self):
        pass

    def resolve(self, vip):
        return 1.0, None, None


def bench_flow_pure_python_fallback(benchmark):
    # The fallback is the advance path a numpy-less install pays; its
    # per-tick cost must stay in the same order as the vector path.
    def run():
        sim = Simulation(seed=0, trace_enabled=False, metrics_enabled=False)
        engine = FlowEngine(
            sim, resolver=_AlwaysServe(), tick=0.05, use_numpy=False
        )
        for index in range(64):
            engine.add_pool(
                FlowPool("p{}".format(index), "10.0.0.{}".format(1 + index), 1562)
            )
        engine.start()
        sim.run(until=30.01)
        return engine.totals()["ticks"]

    ticks = benchmark(run)
    assert ticks == 600

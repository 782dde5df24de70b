"""Ablation: distributed vs representative allocation decisions (§4.2).

The paper ships with every daemon running the deterministic
Reallocate_IPs independently, and notes the alternative where "all
decisions are made by a deterministically chosen representative and
imposed upon the other daemons". The variant buys upgrade flexibility
at the cost of one extra agreed-ordered message before the cluster
leaves GATHER. The bench measures both: identical final allocations,
slightly longer reconfiguration for the representative mode.
"""

from helpers import build_wack_cluster, settle_wack

from repro.experiments.report import mean
from repro.obs.dashboard import format_table


def _reconfiguration_tail(representative, seed):
    cluster = build_wack_cluster(
        4,
        seed=seed,
        n_vips=8,
        wack_overrides={
            "representative_allocation": representative,
            "balance_enabled": False,
            "maturity_timeout": 0.5,
        },
    )
    assert settle_wack(cluster)
    fault_time = cluster.sim.now
    cluster.faults.crash_host(cluster.hosts[3])
    assert settle_wack(cluster)
    assert cluster.auditor.check() == []
    # Time from the survivors' view installation to the last daemon
    # reaching RUN again (the Wackamole-level part of the hand-off).
    installs = cluster.sim.trace.select(
        category="membership", event="install", since=fault_time
    )
    runs = cluster.sim.trace.select(
        category="wackamole", event="run", since=fault_time
    )
    allocation = cluster.wacks[0].table.as_dict()
    return runs[-1].time - installs[0].time, allocation


def bench_ablation_representative_allocation(benchmark, paper_report):
    def run():
        distributed = [_reconfiguration_tail(False, seed) for seed in (31, 32, 33)]
        imposed = [_reconfiguration_tail(True, seed) for seed in (31, 32, 33)]
        return distributed, imposed

    distributed, imposed = benchmark.pedantic(run, rounds=1, iterations=1)
    distributed_tails = [tail for tail, _ in distributed]
    imposed_tails = [tail for tail, _ in imposed]
    # Identical decisions either way (same deterministic procedure) ...
    for (_, alloc_a), (_, alloc_b) in zip(distributed, imposed):
        assert alloc_a == alloc_b
    # ... but the imposed variant pays one extra ordered message.
    assert mean(imposed_tails) > mean(distributed_tails)
    benchmark.extra_info["distributed tail (s)"] = round(mean(distributed_tails), 6)
    benchmark.extra_info["representative tail (s)"] = round(mean(imposed_tails), 6)
    paper_report(
        format_table(
            ["Decision style", "GATHER tail after view install (s)"],
            [
                ["independent deterministic procedures (paper)", mean(distributed_tails)],
                ["representative-imposed (§4.2 variant)", mean(imposed_tails)],
            ],
            title="Ablation: who runs Reallocate_IPs",
        )
    )

from repro.obs.dashboard import format_table
"""Ablation: the RUN-state re-balancing procedure (§3.4).

"After several partitions/merges, the system may end up with a very
unbalanced allocation of IP addresses" — the BALANCE procedure
restores an even spread without extending the non-operational GATHER
phase. The bench produces exactly that skew (partition, then merge, so
conflict resolution strips the earlier members) and compares the final
imbalance with balancing on and off.
"""

from helpers import build_wack_cluster, settle_wack



def _post_merge_imbalance(balance_enabled, seed):
    cluster = build_wack_cluster(
        4,
        seed=seed,
        n_vips=12,
        wack_overrides={
            "balance_enabled": balance_enabled,
            "balance_timeout": 0.5,
            "maturity_timeout": 0.5,
        },
    )
    assert settle_wack(cluster)
    partition = cluster.faults.partition(cluster.lan, [cluster.hosts[:1], cluster.hosts[1:]])
    assert settle_wack(cluster)
    partition.undo()
    assert settle_wack(cluster)
    cluster.sim.run_for(3.0)  # several balance rounds, if enabled
    assert cluster.auditor.check() == []
    counts = [len(w.iface.owned_slots()) for w in cluster.wacks]
    return max(counts) - min(counts)


def bench_ablation_balance_procedure(benchmark, paper_report):
    def run():
        with_balance = max(_post_merge_imbalance(True, seed) for seed in (11, 12))
        without = max(_post_merge_imbalance(False, seed) for seed in (11, 12))
        return with_balance, without

    with_balance, without = benchmark.pedantic(run, rounds=1, iterations=1)
    assert with_balance <= 1, "balance failed to even the allocation"
    assert without > 1, "merge did not skew the allocation as expected"
    benchmark.extra_info["imbalance with balance"] = with_balance
    benchmark.extra_info["imbalance without"] = without
    paper_report(
        format_table(
            ["Configuration", "Max - min VIPs per server after merge"],
            [
                ["balance enabled (paper, §3.4)", with_balance],
                ["balance disabled", without],
            ],
            title="Ablation: load re-balancing after partitions/merges",
        )
    )

"""Ablation: eager vs end-of-gather conflict resolution (§3.4).

"From a practical perspective we want to minimize the amount of time
that an IP address is covered by two or more servers … This is ensured
by the fact that the ResolveConflicts() procedure is invoked as soon
as a conflict is detected."

The bench merges two previously partitioned components (every address
doubly covered) on a LAN with realistic latency jitter, and measures
how long after the merge view installs the losing servers still hold
their conflicting addresses — with the eager drop on and off.
"""

from helpers import build_wack_cluster, settle_wack

from repro.experiments.report import mean
from repro.obs.dashboard import format_table


def _merge_release_latency(eager, seed):
    cluster = build_wack_cluster(
        6,
        seed=seed,
        n_vips=10,
        wack_overrides={
            "eager_conflict_resolution": eager,
            "balance_enabled": False,
            "maturity_timeout": 0.5,
        },
    )
    cluster.lan.latency = 0.002
    cluster.lan.jitter = 0.004
    assert settle_wack(cluster)
    partition = cluster.faults.partition(cluster.lan, [cluster.hosts[:3], cluster.hosts[3:]])
    assert settle_wack(cluster)
    heal_time = cluster.sim.now
    partition.undo()
    assert settle_wack(cluster)
    assert cluster.auditor.check() == []

    installs = cluster.sim.trace.select(
        category="membership", event="install", since=heal_time
    )
    merge_install = installs[0].time
    releases = [
        record.time
        for record in cluster.sim.trace.select(
            category="wackamole", event="release", since=merge_install
        )
    ]
    assert releases, "merge produced no conflict drops"
    return max(releases) - merge_install


def bench_ablation_eager_conflict_resolution(benchmark, paper_report):
    def run():
        eager = [_merge_release_latency(True, seed) for seed in (1, 2, 3)]
        deferred = [_merge_release_latency(False, seed) for seed in (1, 2, 3)]
        return mean(eager), mean(deferred)

    eager_mean, deferred_mean = benchmark.pedantic(run, rounds=1, iterations=1)
    # Eager drops end double coverage before the gather completes.
    assert eager_mean < deferred_mean
    benchmark.extra_info["eager (s)"] = round(eager_mean, 5)
    benchmark.extra_info["deferred (s)"] = round(deferred_mean, 5)
    paper_report(
        format_table(
            ["Conflict resolution", "Double-coverage tail after merge install (s)"],
            [
                ["eager (paper, §3.4)", eager_mean],
                ["deferred to end of GATHER", deferred_mean],
            ],
            title="Ablation: when conflicting VIPs are released",
        )
    )

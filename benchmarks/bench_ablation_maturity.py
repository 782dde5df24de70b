from repro.obs.dashboard import format_table
"""Ablation: the maturity bootstrap (§3.4).

"The reason for this optimization is to avoid quick IP reallocations
as the cluster is rebooted." The bench boots a staggered cluster with
a realistic maturity timeout (servers wait for their peers) and with
an effectively disabled one (the first server up grabs everything and
the balancer must shuffle addresses as each peer arrives), comparing
total address movements during boot.
"""

from helpers import build_wack_cluster, settle_wack



def _boot_churn(maturity_timeout, seed):
    cluster = build_wack_cluster(
        4,
        seed=seed,
        n_vips=12,
        stagger=1.0,  # slow, reboot-like arrival of servers
        wack_overrides={
            "maturity_timeout": maturity_timeout,
            "balance_enabled": True,
            "balance_timeout": 0.5,
        },
    )
    assert settle_wack(cluster, timeout=40.0)
    cluster.sim.run_for(5.0)  # let any balance shuffling play out
    assert cluster.auditor.check() == []
    moves = sum(w.iface.acquisitions + w.iface.releases for w in cluster.wacks)
    return moves


def bench_ablation_maturity_bootstrap(benchmark, paper_report):
    def run():
        patient = max(_boot_churn(6.0, seed) for seed in (21, 22))
        impatient = max(_boot_churn(0.05, seed) for seed in (21, 22))
        return patient, impatient

    patient, impatient = benchmark.pedantic(run, rounds=1, iterations=1)
    # With maturity, boot is one allocation wave (12 acquisitions, no
    # releases); without, early grabbing forces churn.
    assert patient < impatient
    benchmark.extra_info["address moves with maturity"] = patient
    benchmark.extra_info["address moves without"] = impatient
    paper_report(
        format_table(
            ["Configuration", "Address moves during staggered boot"],
            [
                ["maturity bootstrap (paper, §3.4)", patient],
                ["maturity disabled", impatient],
            ],
            title="Ablation: graceful bootstrap vs immediate acquisition",
        )
    )

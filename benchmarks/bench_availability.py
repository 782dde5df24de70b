"""Extension bench: pool-wide availability (the operator's Figure 5).

Probes every VIP concurrently over a two-minute window containing one
interface failure and reports the fraction of answered requests for
both Table 1 configurations.
"""

from repro.experiments.availability import AvailabilityExperiment
from repro.gcs.config import SpreadConfig
from repro.obs.dashboard import format_table


def bench_pool_availability_under_one_fault(benchmark, paper_report):
    def run():
        tuned = AvailabilityExperiment(
            window=120.0, faults=1, trials=1, spread_config=SpreadConfig.tuned()
        ).run()
        default = AvailabilityExperiment(
            window=120.0, faults=1, trials=1, spread_config=SpreadConfig.default()
        ).run()
        return tuned, default

    tuned, default = benchmark.pedantic(run, rounds=1, iterations=1)
    assert tuned["pool_availability"] > default["pool_availability"]
    assert tuned["pool_availability"] > 0.99
    assert default["pool_availability"] > 0.95
    benchmark.extra_info["tuned pool availability"] = round(
        tuned["pool_availability"], 5
    )
    benchmark.extra_info["default pool availability"] = round(
        default["pool_availability"], 5
    )
    paper_report(
        format_table(
            ["Configuration", "Pool availability", "Worst single VIP"],
            [
                [
                    "Fine-tuned Spread",
                    "{:.4%}".format(tuned["pool_availability"]),
                    "{:.4%}".format(tuned["worst_vip_availability"]),
                ],
                [
                    "Default Spread",
                    "{:.4%}".format(default["pool_availability"]),
                    "{:.4%}".format(default["worst_vip_availability"]),
                ],
            ],
            title="Availability over a 120s window with one interface failure "
            "(10 VIPs, 4 servers)",
        )
    )

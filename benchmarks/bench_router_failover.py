"""§5.2: router fail-over under dynamic routing.

Paper claims: with the naive setup the new router must be brought up
to date with the dynamic routing tables, which "usually takes around
30 seconds"; with the advertise-all setup "the hand-off is complete as
soon as Wackamole reconfigures".
"""

from repro.experiments.router_experiment import RouterFailoverExperiment
from repro.gcs.config import SpreadConfig


def bench_router_failover_routing_modes(benchmark, paper_report):
    experiment = RouterFailoverExperiment(trials=2)
    results = benchmark.pedantic(experiment.run, rounds=1, iterations=1)

    static = results["static"]["mean"]
    naive = results["naive"]["mean"]
    advertise_all = results["advertise_all"]["mean"]

    _, failover_hi = SpreadConfig.tuned().notification_window()
    assert static <= failover_hi + 1.0
    assert abs(advertise_all - static) < 1.0
    # The naive setup pays up to one advertisement period (~30 s) extra.
    assert naive > static + 5.0
    assert naive <= static + experiment.rip_interval + 2.0

    benchmark.extra_info["static (s)"] = round(static, 2)
    benchmark.extra_info["naive (s)"] = round(naive, 2)
    benchmark.extra_info["advertise_all (s)"] = round(advertise_all, 2)
    paper_report(experiment.format(results))

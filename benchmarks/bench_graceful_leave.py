"""§6's voluntary-leave measurement, plus the §4.1 mechanism ablation.

Paper claim: a graceful Wackamole leave interrupts availability for at
most 250 ms, typically ~10 ms — because Spread handles a client leave
as a lightweight group change without daemon reconfiguration. The
second bench removes that optimisation (taking the whole daemon down
instead) to show the fallback cost is timeout-scale.
"""

from repro.experiments.graceful import GracefulLeaveExperiment
from repro.apps.cluster import measure_failover
from repro.experiments.report import mean
from repro.gcs.config import SpreadConfig
from repro.obs.dashboard import format_table


def bench_graceful_leave_lightweight(benchmark, paper_report):
    experiment = GracefulLeaveExperiment(trials=8, cluster_size=4)
    results = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    assert results["within_bound"]
    assert results["mean"] <= 0.050
    benchmark.extra_info["mean interruption (s)"] = round(results["mean"], 4)
    paper_report(experiment.format(results))


def _daemon_level_leave(seed):
    """Graceful *daemon* shutdown: skips the lightweight path entirely."""
    from repro.apps.webcluster import WebClusterScenario
    from repro.gcs.config import SpreadConfig

    scenario = WebClusterScenario(
        seed=seed,
        n_servers=4,
        n_vips=10,
        spread_config=SpreadConfig.default(),
        wackamole_overrides={"maturity_timeout": 2.0, "balance_enabled": False},
        trace_enabled=False,
    )
    scenario.start()
    assert scenario.run_until_stable(timeout=60.0)
    probe = scenario.start_probe()
    scenario.sim.run_for(1.0)
    # Take the whole GCS daemon down gracefully: the Wackamole client
    # is disconnected and drops its addresses, but peers must run a
    # full (discovery-timeout) daemon reconfiguration.
    return measure_failover(
        scenario.sim,
        scenario.owner_of(scenario.vips[0]).spread.shutdown,
        SpreadConfig.default().discovery_timeout + 5.0,
        probe,
    ).interruption


def bench_graceful_leave_without_lightweight_path(benchmark, paper_report):
    samples = benchmark.pedantic(
        lambda: [_daemon_level_leave(seed) for seed in (8100, 8101, 8102)],
        rounds=1,
        iterations=1,
    )
    samples = [s for s in samples if s is not None]
    assert samples
    # Without the lightweight leave, the hand-off costs a discovery
    # round (7 s default) instead of milliseconds.
    assert mean(samples) > 1.0
    benchmark.extra_info["mean interruption (s)"] = round(mean(samples), 3)
    light = GracefulLeaveExperiment(trials=3, cluster_size=4).run()
    paper_report(
        format_table(
            ["Leave path", "Mean interruption (s)"],
            [
                ["lightweight client leave (Spread optimisation)", light["mean"]],
                ["full daemon reconfiguration", mean(samples)],
            ],
            title="Ablation: Spread's lightweight group leave (§4.1)",
        )
    )

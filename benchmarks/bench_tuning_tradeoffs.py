"""Extension benches: the tuning trade-offs §4.2 describes.

(a) False positives — "If not done properly, this tuning can be
detrimental to the performance of a Wackamole cluster by increasing
the number of false-positive network failures": an unfaulted cluster
on a lossy LAN reconfigures spuriously, and the aggressive (tuned)
timeouts misfire far more often than the defaults.

(b) Sensitivity — interruption scales linearly with the timeout scale
when the Table 1 ratios are preserved, tracing the curve between the
paper's two published configurations.
"""

from repro.experiments.tuning import FalsePositiveExperiment, SensitivityExperiment


def bench_false_positives_under_loss(benchmark, paper_report):
    experiment = FalsePositiveExperiment()
    results = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    assert results["Default Spread"][0.0] == 0
    assert results["Tuned Spread"][0.0] == 0
    for loss in (0.05, 0.10):
        assert results["Tuned Spread"][loss] > results["Default Spread"][loss]
    benchmark.extra_info["tuned@10% (reconfigs)"] = results["Tuned Spread"][0.10]
    benchmark.extra_info["default@10% (reconfigs)"] = results["Default Spread"][0.10]
    paper_report(experiment.format(results))


def bench_interruption_vs_timeout_scale(benchmark, paper_report):
    experiment = SensitivityExperiment()
    points = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    values = [value for _, value in points]
    assert values == sorted(values)
    for fd, value in points:
        expected = experiment.expected_centre(fd)
        assert abs(value - expected) <= max(0.5, 0.25 * expected)
    benchmark.extra_info["points"] = {fd: round(v, 2) for fd, v in points}
    paper_report(experiment.format(points))

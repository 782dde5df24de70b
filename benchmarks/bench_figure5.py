"""Figure 5: average availability interruption vs cluster size.

Paper claim: with 10 VIPs and 2-12 servers, the interruption is
dominated by the Spread timeouts — about 10.5-12.5 s for the default
configuration and 2-3 s for the fine-tuned one, roughly flat in
cluster size.
"""

from repro.experiments.figure5 import Figure5Experiment


def bench_figure5_cluster_size_sweep(benchmark, paper_report):
    experiment = Figure5Experiment(trials=3)
    series = benchmark.pedantic(experiment.run, rounds=1, iterations=1)

    for size in experiment.cluster_sizes:
        default = series["Default Spread"][size]["mean"]
        tuned = series["Fine-tuned Spread"][size]["mean"]
        assert 9.5 <= default <= 13.0, "default series out of shape at n={}".format(size)
        assert 1.9 <= tuned <= 3.0, "tuned series out of shape at n={}".format(size)
        assert default / tuned > 3.0, "tuning factor collapsed at n={}".format(size)

    default_means = [series["Default Spread"][s]["mean"] for s in experiment.cluster_sizes]
    tuned_means = [series["Fine-tuned Spread"][s]["mean"] for s in experiment.cluster_sizes]
    # Roughly flat with cluster size (the paper's curves move < ~2 s).
    assert max(default_means) - min(default_means) < 2.5
    assert max(tuned_means) - min(tuned_means) < 1.0

    benchmark.extra_info["default mean (s)"] = round(
        sum(default_means) / len(default_means), 3
    )
    benchmark.extra_info["tuned mean (s)"] = round(sum(tuned_means) / len(tuned_means), 3)
    paper_report(experiment.format(series))
    paper_report(experiment.format_chart(series))

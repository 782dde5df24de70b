"""Table 1: Spread timeout tuning and the derived notification windows.

Paper claim: default Spread notifies Wackamole of a failure in 10-12 s;
the tuned configuration in 2-2.4 s.
"""

from repro.experiments.table1 import Table1Experiment


def bench_table1_notification_windows(benchmark, paper_report):
    experiment = Table1Experiment()
    results = benchmark.pedantic(experiment.run, rounds=1, iterations=1)

    for name, measured in results["measured"].items():
        lo, hi = measured["derived_window"]
        assert lo <= measured["min"], name
        assert measured["max"] <= hi + 0.5, name
        benchmark.extra_info["{} mean (s)".format(name)] = round(measured["mean"], 3)

    default = results["measured"]["Default Spread"]["mean"]
    tuned = results["measured"]["Tuned Spread"]["mean"]
    assert 10.0 <= default <= 12.5
    assert 2.0 <= tuned <= 2.9
    paper_report(experiment.format(results))

"""Extension bench: daemon priority on loaded machines (§6).

"It is recommended that both daemon processes be run with high
priority (real-time priority under Linux) in these types of
environments in order to avoid false positive errors."
"""

from repro.experiments.load import LoadedClusterExperiment


def bench_realtime_priority_on_loaded_machines(benchmark, paper_report):
    experiment = LoadedClusterExperiment()
    results = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    for load in experiment.load_delays:
        assert results["real-time priority"][load] == 0
    assert results["normal priority"][0.0] == 0
    assert results["normal priority"][0.3] > results["normal priority"][0.1] > 0
    benchmark.extra_info["normal@300ms (reconfigs)"] = results["normal priority"][0.3]
    paper_report(experiment.format(results))

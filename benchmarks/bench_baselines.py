"""§7: the related protocols under the same crash fault.

Paper-quoted defaults: VRRP advertises every second (master-down about
3-4 s); HSRP hellos every 3 s with 10 s hold; Linux Fake probes and
takes over with a gratuitous ARP. Wackamole is run under both Table 1
configurations.
"""

from repro.experiments.baselines_experiment import BaselineComparison


def bench_baseline_protocol_comparison(benchmark, paper_report):
    comparison = BaselineComparison()
    results = benchmark.pedantic(comparison.run, rounds=1, iterations=1)

    tuned = results["wackamole-tuned"]["mean"]
    default = results["wackamole-default"]["mean"]
    vrrp = results["vrrp"]["mean"]
    hsrp = results["hsrp"]["mean"]
    fake = results["fake"]["mean"]

    assert 1.9 <= tuned <= 3.5
    assert 9.5 <= default <= 13.5
    assert 2.5 <= vrrp <= 4.5
    assert 6.5 <= hsrp <= 10.5
    assert 1.5 <= fake <= 5.0
    # Shape: tuned Wackamole is competitive with VRRP; default Spread
    # timeouts put it near HSRP's hold time.
    assert tuned < vrrp + 1.0
    assert default > hsrp

    for name, data in results.items():
        benchmark.extra_info["{} (s)".format(name)] = round(data["mean"], 2)
    paper_report(comparison.format(results))

"""Overhead of the observability layer on the Figure 5 workload.

The metrics registry instruments every hot path of the simulation — the
scheduler loop, LAN frame delivery, NIC rx/tx, GCS datagram dispatch,
the Wackamole interface manager — so it must be cheap enough to leave
on for the paper sweeps and the soak campaigns. Budget: **metrics-on
must cost less than 5 % wall-clock over metrics-off** on the §6
fail-over trial (the Figure 5 unit of work). The disabled registry
hands out a shared null instrument, so metrics-off pays exactly one
``is None`` test in the scheduler loop and attribute lookups elsewhere.

The overhead is the median over alternating plain/instrumented pairs,
as the system benchmark compares runs: each pair times one trial of
each configuration back to back, the order flipping from pair to pair
so that drift in the machine's speed falls on both sides alike, and
one slow run moves one ratio, not the verdict. The in-test guard is
deliberately looser (25 %) because shared CI runners add noise to a
measurement this small; the 5 % budget is the engineering target,
checked on quiet hardware. Both configurations run the identical seed
and must produce the identical interruption — measurement must never
perturb the measured system.
"""

from repro.apps.webcluster import WebClusterScenario
from repro.gcs.config import SpreadConfig
from repro.obs.dashboard import format_table

#: Engineering budget (quiet hardware) vs. CI guard (noisy runners).
OVERHEAD_BUDGET = 0.05
CI_GUARD = 0.25
#: Plain/instrumented pairs whose median ratio is the overhead.
PAIRS = 21


def _figure5_unit(seed, metrics_enabled):
    """One Figure 5 trial body; returns (interruption, instruments)."""
    scenario = WebClusterScenario(
        seed=seed,
        n_servers=4,
        n_vips=10,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 2.0, "balance_enabled": False},
        metrics_enabled=metrics_enabled,
    )
    scenario.start()
    if not scenario.run_until_stable(timeout=60.0):
        raise RuntimeError("cluster never stabilised")
    scenario.start_probe()
    scenario.sim.run_for(1.0)
    failover = scenario.measure_failover("nic_down", 4.0)
    return failover.interruption, len(scenario.sim.metrics)


def bench_observability_overhead(benchmark, paper_report):
    import statistics
    import time

    def timed(metrics_enabled):
        start = time.perf_counter()
        interruption, instruments = _figure5_unit(42, metrics_enabled)
        return time.perf_counter() - start, interruption, instruments

    def run():
        pairs, seen = [], {}
        for pair in range(PAIRS):
            order = (False, True) if pair % 2 == 0 else (True, False)
            times = {}
            for metrics_enabled in order:
                elapsed, interruption, instruments = timed(metrics_enabled)
                times[metrics_enabled] = elapsed
                seen[metrics_enabled] = interruption, instruments
            pairs.append((times[True], times[False]))
        return pairs, seen

    pairs, seen = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = statistics.median(on / off for on, off in pairs) - 1.0
    on_time = statistics.median(on for on, _off in pairs)
    off_time = statistics.median(off for _on, off in pairs)
    (on_int, instruments), (off_int, null_instruments) = seen[True], seen[False]

    # Observation must never perturb the observed protocol.
    assert on_int == off_int, "metrics changed the measured interruption"
    assert instruments > 0, "metrics-on registered no instruments"
    assert null_instruments == 0, "disabled registry stored instruments"
    assert overhead < CI_GUARD, (
        "observability overhead {:.1%} exceeds even the noisy-CI guard "
        "({:.0%}; engineering budget {:.0%})".format(
            overhead, CI_GUARD, OVERHEAD_BUDGET
        )
    )

    benchmark.extra_info["overhead"] = "{:.2%}".format(overhead)
    benchmark.extra_info["budget"] = "{:.0%}".format(OVERHEAD_BUDGET)
    paper_report(
        format_table(
            ["Configuration", "Wall-clock (s)", "Interruption (s)"],
            [
                ["metrics on", round(on_time, 4), round(on_int, 4)],
                ["metrics off", round(off_time, 4), round(off_int, 4)],
                ["overhead", "{:.2%}".format(overhead), "budget {:.0%}".format(OVERHEAD_BUDGET)],
            ],
            title="Observability overhead on the Figure 5 trial",
        )
    )

"""The ``repro observe`` driver: one instrumented fail-over run.

Builds the quickstart scenario (a small web cluster with tuned GCS
timeouts and a short maturity window), lets it converge, injects one
fault against the owner of the probed virtual address, and returns the
measurement (whose ``sim.metrics`` is the run's registry) and the
coverage engine. Everything is a pure function of ``(seed, shape,
fault)``, so two runs with the same arguments render byte-identical
output — the CI smoke test diffs the JSON-lines export of a double run.
"""

from repro.apps.webcluster import WebClusterScenario
from repro.gcs.config import SpreadConfig

#: fault modes accepted by ``repro observe --fault``.
FAULT_MODES = ("crash", "nic_down", "shutdown")


def run_observation(
    seed=7,
    n_servers=3,
    n_vips=6,
    fault="crash",
    settle=10.0,
    observe_for=10.0,
):
    """Run the instrumented quickstart fail-over and observe everything.

    Mirrors ``examples/quickstart.py``: ``n_servers`` servers share
    ``n_vips`` virtual addresses, converge for ``settle`` simulated
    seconds, then the owner of the probed address is removed with
    ``fault`` and the cluster runs ``observe_for`` more seconds.
    Returns ``(failover, coverage)`` (the finished coverage engine) — or
    None, breaking nothing, when the cluster had not settled by then.
    """
    if fault not in FAULT_MODES:
        raise ValueError(
            "unknown fault mode {!r}; expected one of {}".format(fault, FAULT_MODES)
        )
    scenario = WebClusterScenario(
        seed=seed,
        n_servers=n_servers,
        n_vips=n_vips,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 2.0},
    )
    scenario.start()
    scenario.start_probe()
    coverage = scenario.watch_coverage()
    scenario.sim.run_for(settle)
    if not scenario.settled():
        return None
    failover = scenario.measure_failover(fault, observe_for)
    return failover, coverage.finish()

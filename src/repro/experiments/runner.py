"""One fail-over trial: build a cluster, break it, measure from the client.

Reproduces the §6 methodology: the probe client samples one virtual
address every 10 ms; the fault disconnects the interface of that
address's current owner; the availability interruption is the gap
between the last reply from the victim and the first reply from the
takeover server. The fault instant is drawn uniformly inside a
heartbeat interval so the detection-phase randomness ([fd - hb, fd])
is properly sampled across trials.
"""

from repro.apps.cluster import fault_phase
from repro.apps.webcluster import WebClusterScenario


def settled_cluster(seed, cluster_size, spread_config, n_vips=10):
    """The §6 web cluster, booted and stable; no probe attached yet."""
    scenario = WebClusterScenario(
        seed=seed,
        n_servers=cluster_size,
        n_vips=n_vips,
        spread_config=spread_config,
        wackamole_overrides={"maturity_timeout": 2.0, "balance_enabled": False},
    )
    scenario.start()
    if not scenario.run_until_stable(timeout=60.0):
        raise RuntimeError("cluster never stabilised (seed={})".format(seed))
    return scenario


def run_failover_trial(seed, cluster_size, spread_config, n_vips=10, fault_mode="nic_down"):
    """One complete fail-over measurement: ``(scenario, Failover)``."""
    scenario = settled_cluster(seed, cluster_size, spread_config, n_vips)
    scenario.start_probe()
    # Randomise the failure phase within a heartbeat interval.
    scenario.sim.run_for(0.5 + fault_phase(seed) * spread_config.heartbeat_timeout)
    _lo, hi = spread_config.notification_window()
    return scenario, scenario.measure_failover(fault_mode, hi + 2.0)

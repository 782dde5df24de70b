"""§5.2's router fail-over comparison.

Measures client-perceived interruption (internal host reaching an
internet service through the virtual router) when the active physical
router crashes, under the three routing setups:

* ``static`` — no dynamic routing: pure Wackamole hand-off cost;
* ``naive`` — only the active router speaks the dynamic routing
  protocol, so the successor must wait for the next advertisement
  round ("usually takes around 30 seconds");
* ``advertise_all`` — every physical router participates continuously,
  so the hand-off is "complete as soon as Wackamole reconfigures".
"""

from repro.apps.cluster import fault_phase
from repro.apps.routercluster import RouterClusterScenario
from repro.experiments.report import mean
from repro.gcs.config import SpreadConfig
from repro.obs.dashboard import format_table


class RouterFailoverExperiment:
    """Crash the active virtual router under each routing setup."""

    MODES = ("static", "naive", "advertise_all")

    def __init__(
        self,
        trials=3,
        n_routers=2,
        spread_config=None,
        rip_interval=30.0,
        base_seed=9000,
    ):
        self.trials = trials
        self.n_routers = n_routers
        self.spread_config = spread_config or SpreadConfig.tuned()
        self.rip_interval = rip_interval
        self.base_seed = base_seed

    def run_mode(self, mode):
        """Interruption samples for one routing setup."""
        samples = []
        for trial in range(self.trials):
            seed = self.base_seed + trial
            samples.append(self._one_trial(mode, seed))
        return samples

    def _one_trial(self, mode, seed):
        scenario = RouterClusterScenario(
            seed=seed,
            n_routers=self.n_routers,
            routing_mode=mode,
            spread_config=self.spread_config,
            rip_interval=self.rip_interval,
            wackamole_overrides={"maturity_timeout": 2.0},
            trace_enabled=False,
        )
        scenario.start()
        if not scenario.run_until_stable(timeout=180.0):
            raise RuntimeError("router cluster never stabilised ({})".format(mode))
        scenario.start_probe()
        scenario.sim.run_for(
            1.0 + fault_phase(seed) * self.spread_config.heartbeat_timeout
        )
        _, hi = self.spread_config.notification_window()
        failover = scenario.measure_failover("crash", hi + self.rip_interval + 5.0)
        if failover.takeover is None:
            raise RuntimeError("no router took over in mode {}".format(mode))
        return failover.longest_gap

    def run(self):
        """{mode: {mean, samples}} across all routing setups."""
        results = {}
        for mode in self.MODES:
            samples = self.run_mode(mode)
            results[mode] = {"samples": samples, "mean": mean(samples)}
        return results

    def format(self, results=None):
        results = results or self.run()
        rows = [
            [mode, results[mode]["mean"], max(results[mode]["samples"])]
            for mode in self.MODES
        ]
        return format_table(
            ["Routing setup", "Mean interruption (s)", "Max (s)"],
            rows,
            title="Router fail-over under dynamic routing (rip interval = {}s)".format(
                self.rip_interval
            ),
        )

"""Pool-wide availability: the downstream user's view of Figure 5.

Figure 5 reports the interruption of *one* virtual address. A service
operator cares about the complement: what fraction of requests across
the *whole* address pool succeed over a window containing faults. This
experiment probes every VIP concurrently (10 ms interval each, as in
§6), injects a fault schedule, and reports per-VIP and pool-wide
availability.
"""

from repro.apps.webcluster import WebClusterScenario
from repro.apps.workload import ProbeClient
from repro.experiments.report import mean
from repro.gcs.config import SpreadConfig
from repro.obs.dashboard import format_table
from repro.sim.rng import RngRegistry


class AvailabilityExperiment:
    """Request success rate over a faulty window, across the pool."""

    def __init__(
        self,
        window=120.0,
        n_servers=4,
        n_vips=10,
        faults=1,
        trials=2,
        spread_config=None,
        probe_interval=0.010,
        base_seed=8800,
    ):
        self.window = float(window)
        self.n_servers = n_servers
        self.n_vips = n_vips
        self.faults = faults
        self.trials = trials
        self.spread_config = spread_config or SpreadConfig.tuned()
        self.probe_interval = probe_interval
        self.base_seed = base_seed
        self._gap_seconds = []

    def run_trial(self, seed):
        """One window; returns (pool availability, per-vip rates, probes)."""
        scenario = WebClusterScenario(
            seed=seed,
            n_servers=self.n_servers,
            n_vips=self.n_vips,
            spread_config=self.spread_config,
            wackamole_overrides={"maturity_timeout": 2.0, "balance_timeout": 5.0},
            trace_enabled=False,
        )
        scenario.start()
        if not scenario.run_until_stable(timeout=60.0):
            raise RuntimeError("cluster never stabilised")
        probes = [
            ProbeClient(scenario.client_host, vip, interval=self.probe_interval)
            for vip in scenario.vips
        ]
        for probe in probes:
            probe.start()
        # Feeds core.vips_covered and times exactly how long the pool sat
        # below full coverage; read-side only, the probes are unaffected.
        coverage = scenario.watch_coverage()
        rng = RngRegistry(seed).stream("fault_schedule")
        fault_times = sorted(
            rng.uniform(self.window * 0.1, self.window * 0.8)
            for _ in range(self.faults)
        )
        start = scenario.sim.now
        for offset in fault_times:
            scenario.sim.at(
                start + offset, self._fail_some_server, scenario
            )
        scenario.sim.run_for(self.window)
        for probe in probes:
            probe.stop_probing()
        self._gap_seconds.append(coverage.finish().coverage_gap_s)
        per_vip = {
            str(probe.target): probe.response_rate() for probe in probes
        }
        answered = sum(len(p.responses) for p in probes)
        sent = sum(p.requests_sent for p in probes)
        return answered / sent, per_vip, probes

    @staticmethod
    def _fail_some_server(scenario):
        live = [w for w in scenario.wacks if w.alive]
        if len(live) > 1:
            scenario.faults.nic_down(live[0].host.nic_on(scenario.lan))

    def run(self):
        """Mean pool availability and the worst single-VIP rate."""
        pool_rates = []
        worst_vip_rates = []
        self._gap_seconds = []
        for trial in range(self.trials):
            pool, per_vip, _ = self.run_trial(self.base_seed + trial)
            pool_rates.append(pool)
            worst_vip_rates.append(min(per_vip.values()))
        return {
            "pool_availability": mean(pool_rates),
            "worst_vip_availability": mean(worst_vip_rates),
            "samples": pool_rates,
            "mean_coverage_gap": mean(self._gap_seconds) if self._gap_seconds else 0.0,
        }

    def format(self, results=None):
        results = results or self.run()
        rows = [
            ["window (s)", self.window],
            ["faults injected", self.faults],
            ["pool availability", "{:.4%}".format(results["pool_availability"])],
            ["worst single VIP", "{:.4%}".format(results["worst_vip_availability"])],
            [
                "mean coverage gap (s)",
                "{:.2f}".format(results.get("mean_coverage_gap", 0.0)),
            ],
        ]
        return format_table(
            ["Metric", "Value"],
            rows,
            title="Pool-wide availability under faults ({} VIPs, {} servers)".format(
                self.n_vips, self.n_servers
            ),
        )

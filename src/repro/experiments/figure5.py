"""Figure 5: average availability interruption vs cluster size.

"Both experiments were run on a 100Mbit Ethernet LAN cluster,
maintaining 10 virtual IP addresses in a cluster, and varying the
number of servers from 2 to 12." The reported quantity is the average
availability interruption time measured from a client probing one
virtual address at a 10 ms interval, for default and fine-tuned
Spread configurations.
"""

from repro.experiments.plotting import render_series
from repro.experiments.report import mean, stdev
from repro.experiments.runner import run_failover_trial
from repro.gcs.config import SpreadConfig
from repro.obs.dashboard import format_table


class Figure5Experiment:
    """Sweep cluster sizes for both Spread configurations."""

    def __init__(
        self,
        cluster_sizes=(2, 4, 6, 8, 10, 12),
        trials=5,
        n_vips=10,
        base_seed=42,
        fault_mode="nic_down",
    ):
        self.cluster_sizes = tuple(cluster_sizes)
        self.trials = trials
        self.n_vips = n_vips
        self.base_seed = base_seed
        self.fault_mode = fault_mode
        self.configs = {
            "Default Spread": SpreadConfig.default(),
            "Fine-tuned Spread": SpreadConfig.tuned(),
        }

    def run_point(self, config, cluster_size):
        """All trials for one (configuration, cluster size) point."""
        interruptions = []
        for trial in range(self.trials):
            seed = self.base_seed + 1000 * cluster_size + trial
            scenario, result = run_failover_trial(
                seed,
                cluster_size,
                config,
                n_vips=self.n_vips,
                fault_mode=self.fault_mode,
            )
            violations = scenario.auditor.check()
            if violations:
                raise AssertionError(
                    "coverage violated during trial: {}".format(violations)
                )
            if result.interruption is None:
                raise RuntimeError(
                    "no fail-over observed (size={}, seed={})".format(cluster_size, seed)
                )
            interruptions.append(result.interruption)
        return interruptions

    def run(self):
        """The full figure: {config: {size: {mean, stdev, samples}}}."""
        series = {}
        for name, config in self.configs.items():
            points = {}
            for size in self.cluster_sizes:
                samples = self.run_point(config, size)
                points[size] = {
                    "mean": mean(samples),
                    "stdev": stdev(samples),
                    "samples": samples,
                }
            series[name] = points
        return series

    def format(self, series=None):
        """The figure's two series as a table (x = cluster size)."""
        series = series or self.run()
        rows = []
        for size in self.cluster_sizes:
            row = [size]
            for name in self.configs:
                point = series[name][size]
                row.append(point["mean"])
                row.append(point["stdev"])
            rows.append(row)
        headers = ["Cluster Size"]
        for name in self.configs:
            headers.extend(["{} mean (s)".format(name), "stdev"])
        return format_table(
            headers,
            rows,
            title="Figure 5. Average Availability Interruption with Varying Cluster Size",
        )

    def format_chart(self, series=None):
        """ASCII rendition of the figure itself (two series over size)."""
        series = series or self.run()
        plotted = {
            name: [(size, series[name][size]["mean"]) for size in self.cluster_sizes]
            for name in self.configs
        }
        return render_series(
            plotted,
            y_label="Availability Interruption (seconds)",
            x_label="Cluster Size",
        )

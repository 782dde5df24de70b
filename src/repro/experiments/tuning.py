"""Tuning trade-off experiments around the Table 1 timeouts.

§4.2: "Modifying the Spread network-failure probing timeouts must be
… done on a system-specific basis. If not done properly, this tuning
can be detrimental to the performance of a Wackamole cluster by
increasing the number of false-positive network failures."

Two experiments quantify the trade-off the paper describes only
qualitatively:

* :class:`FalsePositiveExperiment` — spurious reconfigurations of an
  *unfaulted* cluster as a function of message-loss rate, for both
  Table 1 configurations. Aggressive timeouts tolerate fewer lost
  heartbeats, so they misfire more often per unit time.
* :class:`SensitivityExperiment` — client-perceived interruption as a
  function of the fault-detection timeout (heartbeat and discovery
  scaled with the Table 1 ratios), mapping the whole tuning curve
  between the two published points.
"""

from repro.apps.webcluster import WebClusterScenario
from repro.experiments.plotting import render_series
from repro.experiments.report import mean
from repro.experiments.runner import run_failover_trial
from repro.gcs.config import SpreadConfig
from repro.obs.dashboard import format_table


class FalsePositiveExperiment:
    """Counts spurious view changes on a healthy but lossy LAN."""

    def __init__(self, loss_rates=(0.0, 0.05, 0.10), duration=120.0,
                 cluster_size=4, trials=2, base_seed=6000):
        self.loss_rates = tuple(loss_rates)
        self.duration = float(duration)
        self.cluster_size = cluster_size
        self.trials = trials
        self.base_seed = base_seed
        self.configs = {
            "Default Spread": SpreadConfig.default(),
            "Tuned Spread": SpreadConfig.tuned(),
        }

    def count_spurious(self, config, loss, seed):
        """Reconfigurations observed with no fault injected."""
        scenario = WebClusterScenario(
            seed=seed,
            n_servers=self.cluster_size,
            n_vips=4,
            spread_config=config,
            wackamole_overrides={"maturity_timeout": 2.0, "balance_enabled": False},
            trace_enabled=False,
        )
        scenario.start()
        if not scenario.run_until_stable(timeout=90.0):
            raise RuntimeError("cluster never stabilised")
        baseline = sum(s.membership.views_installed for s in scenario.spreads)
        scenario.lan.loss = loss
        scenario.sim.run_for(self.duration)
        after = sum(s.membership.views_installed for s in scenario.spreads)
        return after - baseline

    def run(self):
        """{config: {loss: mean spurious reconfigurations}}."""
        results = {}
        for name, config in self.configs.items():
            by_loss = {}
            for loss in self.loss_rates:
                counts = [
                    self.count_spurious(config, loss, self.base_seed + trial)
                    for trial in range(self.trials)
                ]
                by_loss[loss] = mean(counts)
            results[name] = by_loss
        return results

    def format(self, results=None):
        results = results or self.run()
        rows = []
        for loss in self.loss_rates:
            rows.append(
                ["{:.0%}".format(loss)]
                + [results[name][loss] for name in self.configs]
            )
        return format_table(
            ["Frame loss"] + ["{} (reconfigs)".format(n) for n in self.configs],
            rows,
            title="False-positive reconfigurations in {}s with no real fault".format(
                self.duration
            ),
        )


class SensitivityExperiment:
    """Interruption vs fault-detection timeout (Table 1 ratios kept)."""

    #: Table 1 proportions: hb = 0.4 x fd, discovery = 1.4 x fd.
    HEARTBEAT_RATIO = 0.4
    DISCOVERY_RATIO = 1.4

    def __init__(self, fd_timeouts=(1.0, 2.0, 3.0, 5.0), trials=3,
                 cluster_size=4, base_seed=6500):
        self.fd_timeouts = tuple(fd_timeouts)
        self.trials = trials
        self.cluster_size = cluster_size
        self.base_seed = base_seed

    def config_for(self, fd):
        """SpreadConfig with the Table 1 proportions at scale ``fd``."""
        return SpreadConfig(
            fault_detection_timeout=fd,
            heartbeat_timeout=fd * self.HEARTBEAT_RATIO,
            discovery_timeout=fd * self.DISCOVERY_RATIO,
        )

    def run_point(self, fd):
        config = self.config_for(fd)
        samples = []
        for trial in range(self.trials):
            _scenario, result = run_failover_trial(
                self.base_seed + trial,
                self.cluster_size,
                config,
                n_vips=6,
            )
            samples.append(result.interruption)
        return mean(samples)

    def run(self):
        """[(fd, mean interruption)] over the sweep."""
        return [(fd, self.run_point(fd)) for fd in self.fd_timeouts]

    def format(self, points=None):
        points = points or self.run()
        table = format_table(
            ["Fault-detection timeout (s)", "Mean interruption (s)",
             "Expected centre (s)"],
            [[fd, value, self.expected_centre(fd)] for fd, value in points],
            title="Interruption vs timeout scale (Table 1 ratios)",
        )
        chart = render_series(
            {"measured": points,
             "expected": [(fd, self.expected_centre(fd)) for fd, _ in points]},
            y_label="interruption (s)",
            x_label="fault-detection timeout (s)",
        )
        return table + "\n\n" + chart

    def expected_centre(self, fd):
        """Midpoint of the §6 window: fd - hb/2 + discovery."""
        return fd - fd * self.HEARTBEAT_RATIO / 2.0 + fd * self.DISCOVERY_RATIO

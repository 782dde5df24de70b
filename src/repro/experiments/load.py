"""Loaded-machine experiment: why the daemons want real-time priority.

§6: "Both Wackamole and Spread can be used in production on
highly-loaded machines as well. However, it is recommended that both
daemon processes be run with high priority (real-time priority under
Linux) in these types of environments in order to avoid false positive
errors."

The simulated host can impose an exponential user-space scheduling
delay on datagram delivery (:meth:`repro.net.host.Host.set_load`);
sockets opened with real-time priority bypass it. This experiment
counts spurious reconfigurations of a healthy cluster as load grows,
with and without real-time priority for the GCS daemons.
"""

from repro.apps.cluster import ServerGroup
from repro.core.config import WackamoleConfig
from repro.experiments.report import mean
from repro.gcs.config import SpreadConfig
from repro.net.host import Host
from repro.net.lan import Lan
from repro.obs.dashboard import format_table
from repro.sim.simulation import Simulation


class LoadedClusterExperiment:
    """Spurious reconfigurations vs host load, +/- real-time priority."""

    def __init__(
        self,
        load_delays=(0.0, 0.1, 0.3),
        duration=120.0,
        cluster_size=4,
        trials=2,
        spread_config=None,
        base_seed=7700,
    ):
        self.load_delays = tuple(load_delays)
        self.duration = float(duration)
        self.cluster_size = cluster_size
        self.trials = trials
        self.spread_config = spread_config or SpreadConfig.tuned()
        self.base_seed = base_seed

    def count_spurious(self, realtime, load, seed):
        """Reconfigurations on a healthy cluster under ``load``."""
        sim = Simulation(seed=seed, trace_enabled=False)
        lan = Lan(sim, "lan", "10.0.0.0/24")
        config = WackamoleConfig.for_vips(
            ["10.0.0.{}".format(100 + i) for i in range(4)],
            maturity_timeout=1.0,
            balance_enabled=False,
        )
        group = ServerGroup(sim, lan, self.spread_config, config, realtime=realtime)
        for index in range(self.cluster_size):
            host = Host(sim, "node{}".format(index))
            host.add_nic(lan, "10.0.0.{}".format(10 + index))
            group.add(host)
        # Boot on an unloaded machine, then the load arrives.
        group.start(stagger=0.02)
        sim.run_for(15.0)
        for host in group.hosts:
            host.set_load(load)
        baseline = sum(s.membership.views_installed for s in group.spreads)
        sim.run_for(self.duration)
        return sum(s.membership.views_installed for s in group.spreads) - baseline

    def run(self):
        """{priority: {load: mean spurious reconfigurations}}."""
        results = {}
        for label, realtime in (("real-time priority", True), ("normal priority", False)):
            by_load = {}
            for load in self.load_delays:
                counts = [
                    self.count_spurious(realtime, load, self.base_seed + trial)
                    for trial in range(self.trials)
                ]
                by_load[load] = mean(counts)
            results[label] = by_load
        return results

    def format(self, results=None):
        results = results or self.run()
        labels = list(results)
        rows = []
        for load in self.load_delays:
            rows.append(
                ["{:.0f} ms".format(load * 1000)]
                + [results[label][load] for label in labels]
            )
        return format_table(
            ["Mean scheduling delay"] + ["{} (reconfigs)".format(l) for l in labels],
            rows,
            title="Spurious reconfigurations in {}s on loaded machines "
            "(tuned Spread)".format(self.duration),
        )

"""§7's related protocols under the same fault, for comparison.

The paper quotes the default timers of VRRP (1 s advertisements) and
HSRP (3 s hellos, 10 s hold) and describes the Linux Fake project's
probe-plus-gratuitous-ARP takeover. This experiment runs each of them
— and Wackamole under both Spread configurations — against the same
crash fault and reports the client-perceived interruption.
"""

from repro.apps.cluster import fault_phase, measure_failover
from repro.apps.workload import ProbeClient, UdpEchoServer
from repro.baselines.fake import FakeFailover
from repro.baselines.hsrp import HsrpRouter
from repro.baselines.vrrp import VrrpRouter
from repro.experiments.report import mean
from repro.experiments.runner import run_failover_trial
from repro.gcs.config import SpreadConfig
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.obs.dashboard import format_table
from repro.sim.simulation import Simulation

SUBNET = "198.51.100.0/24"
VIP = "198.51.100.150"


class BaselineComparison:
    """One fault, five protocols, one number each."""

    PROTOCOLS = (
        "wackamole-tuned",
        "wackamole-default",
        "vrrp",
        "hsrp",
        "fake",
    )

    def __init__(self, trials=3, n_servers=3, base_seed=5000):
        self.trials = trials
        self.n_servers = n_servers
        self.base_seed = base_seed

    def run_protocol(self, protocol):
        """Interruption samples for one protocol."""
        samples = []
        for trial in range(self.trials):
            seed = self.base_seed + trial
            samples.append(self._one_trial(protocol, seed))
        return samples

    def _one_trial(self, protocol, seed):
        if protocol == "wackamole-tuned":
            return self._wackamole(seed, SpreadConfig.tuned())
        if protocol == "wackamole-default":
            return self._wackamole(seed, SpreadConfig.default())
        if protocol == "vrrp":
            return self._vrrp(seed)
        if protocol == "hsrp":
            return self._hsrp(seed)
        if protocol == "fake":
            return self._fake(seed)
        raise ValueError("unknown protocol {!r}".format(protocol))

    # ------------------------------------------------------------------

    def _wackamole(self, seed, config):
        _scenario, failover = run_failover_trial(
            seed, self.n_servers, config, n_vips=1, fault_mode="crash"
        )
        return failover.interruption

    def _build_lan(self, seed):
        sim = Simulation(seed=seed, trace_enabled=False)
        lan = Lan(sim, "lan", SUBNET)
        hosts = []
        for index in range(self.n_servers):
            host = Host(sim, "srv{}".format(index + 1))
            host.add_nic(lan, "198.51.100.{}".format(10 + index))
            UdpEchoServer(host)
            hosts.append(host)
        client = Host(sim, "client")
        client.add_nic(lan, "198.51.100.200")
        return sim, lan, hosts, client

    def _measure(self, sim, client, owner_of_vip, settle, seed):
        probe = ProbeClient(client, VIP)
        probe.start()
        sim.run_for(1.0 + fault_phase(seed))
        return measure_failover(
            sim, lambda: FaultInjector(sim).crash_host(owner_of_vip()), settle, probe
        ).interruption

    def _vrrp(self, seed):
        sim, lan, hosts, client = self._build_lan(seed)
        instances = [
            VrrpRouter(host, lan, VIP, priority=110 - 10 * index)
            for index, host in enumerate(hosts)
        ]
        for instance in instances:
            instance.start()
        sim.run_for(8.0)
        return self._measure(
            sim, client, lambda: self._vip_owner(hosts), settle=15.0, seed=seed
        )

    def _hsrp(self, seed):
        sim, lan, hosts, client = self._build_lan(seed)
        instances = [
            HsrpRouter(host, lan, VIP, priority=110 - 10 * index)
            for index, host in enumerate(hosts)
        ]
        for instance in instances:
            instance.start()
        sim.run_for(25.0)
        return self._measure(
            sim, client, lambda: self._vip_owner(hosts), settle=30.0, seed=seed
        )

    def _fake(self, seed):
        sim, lan, hosts, client = self._build_lan(seed)
        main, backup = hosts[0], hosts[1]
        main.nics[0].bind_ip(VIP)
        FakeFailover.serve_probes(main)
        failover = FakeFailover(backup, lan, VIP, probe_target=main.nics[0].primary_ip)
        failover.start()
        sim.run_for(3.0)
        return self._measure(sim, client, lambda: main, settle=15.0, seed=seed)

    @staticmethod
    def _vip_owner(hosts):
        from repro.net.addresses import IPAddress

        vip = IPAddress(VIP)
        for host in hosts:
            if host.alive and host.owns_ip(vip):
                return host
        raise RuntimeError("no host owns the VIP")

    # ------------------------------------------------------------------

    def run(self):
        """{protocol: {mean, samples}} for all protocols."""
        results = {}
        for protocol in self.PROTOCOLS:
            samples = self.run_protocol(protocol)
            valid = [s for s in samples if s is not None]
            results[protocol] = {"samples": samples, "mean": mean(valid)}
        return results

    def format(self, results=None):
        results = results or self.run()
        rows = [
            [protocol, results[protocol]["mean"]]
            for protocol in self.PROTOCOLS
        ]
        return format_table(
            ["Protocol", "Mean interruption (s)"],
            rows,
            title="Fail-over interruption: Wackamole vs related protocols (crash fault)",
        )

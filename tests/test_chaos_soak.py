"""Chaos soak: ten simulated minutes of continuous random faulting.

A long-horizon confidence test beyond the bounded Hypothesis
schedules: faults fire on a random clock for the whole window
(interface flaps, crashes with reboots-and-restarts, partitions and
heals), probes run against the pool throughout, and the invariants are
sampled continuously. At the end the cluster must quiesce back to full
coverage with sane availability.
"""

from helpers import settle_wack

from repro.gcs.config import SpreadConfig
from repro.apps.workload import ProbeClient, UdpEchoServer
from repro.core.audit import CoverageAuditor
from repro.core.config import WackamoleConfig
from repro.core.daemon import WackamoleDaemon
from repro.core.state import RUN
from repro.gcs.daemon import SpreadDaemon
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.sim.simulation import Simulation

SOAK_SECONDS = 600.0
N_SERVERS = 5
N_VIPS = 8


class ChaosMonkey:
    """Random fault driver with guaranteed eventual healing."""

    def __init__(self, sim, lan, hosts, wacks, config):
        self.sim = sim
        self.lan = lan
        self.hosts = hosts
        self.wacks = wacks
        self.config = config
        self.faults = FaultInjector(sim)
        self.rng = sim.rng.stream("chaos")
        self.actions = 0
        self.partitions = []  # handles of the cuts this monkey opened

    def start(self):
        self._schedule_next()

    def _schedule_next(self):
        self.sim.after(self.rng.uniform(5.0, 20.0), self._act)

    def _act(self):
        if self.sim.now > SOAK_SECONDS - 60.0:
            # Quiet period at the end: heal everything, stop acting.
            self._heal_all()
            for host in self.hosts:
                if host.alive:
                    for nic in host.nics:
                        self.faults.nic_up(nic)
            return
        self.actions += 1
        live = [i for i, w in enumerate(self.wacks) if w.alive]
        choice = self.rng.random()
        if choice < 0.3 and len(live) > 2:
            index = self.rng.choice(live)
            self.faults.crash_host(self.hosts[index])
            self.sim.after(self.rng.uniform(20.0, 40.0), self._revive, index)
        elif choice < 0.6:
            index = self.rng.choice(range(len(self.hosts)))
            nic = self.hosts[index].nics[0]
            if nic.up:
                self.faults.nic_down(nic)
                self.sim.after(self.rng.uniform(10.0, 30.0), self.faults.nic_up, nic)
        elif choice < 0.8:
            split = self.rng.randint(1, len(self.hosts) - 1)
            # Split off a server group; the probing client stays
            # connected to the remainder (its component keeps serving).
            fault = self.faults.partition(self.lan, [self.hosts[:split]])
            self.partitions.append(fault)
            self.sim.after(self.rng.uniform(10.0, 30.0), fault.undo)
        else:
            self._heal_all()
        self._schedule_next()

    def _heal_all(self):
        for fault in self.partitions:
            fault.undo()
        self.partitions = []

    def _revive(self, index):
        host = self.hosts[index]
        if host.alive:
            return
        self.faults.recover_host(host)
        UdpEchoServer(host)
        spread = SpreadDaemon(
            host,
            self.lan,
            self.wacks[index].spread.config,
            daemon_id="{}-r{}".format(host.name, self.actions),
        )
        wack = WackamoleDaemon(host, spread, self.wacks[index].config)
        spread.start()
        wack.start()
        self.wacks[index] = wack


import pytest

pytestmark = pytest.mark.soak


@pytest.mark.parametrize("representative", [False, True],
                         ids=["distributed", "representative"])
def test_ten_minute_chaos_soak(representative):
    sim = Simulation(seed=4242, trace_enabled=False)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    spread_config = SpreadConfig.fast(
        fault_detection_timeout=1.0, heartbeat_timeout=0.4, discovery_timeout=1.4
    )
    vips = ["10.0.0.{}".format(100 + i) for i in range(N_VIPS)]
    config = WackamoleConfig.for_vips(
        vips,
        maturity_timeout=1.0,
        balance_timeout=3.0,
        representative_allocation=representative,
    )
    hosts, wacks = [], []
    for index in range(N_SERVERS):
        host = Host(sim, "s{}".format(index))
        host.add_nic(lan, "10.0.0.{}".format(10 + index))
        UdpEchoServer(host)
        spread = SpreadDaemon(host, lan, spread_config)
        wack = WackamoleDaemon(host, spread, config)
        sim.after(0.05 * index, spread.start)
        sim.after(0.05 * index + 0.01, wack.start)
        hosts.append(host)
        wacks.append(wack)
    client = Host(sim, "client")
    client.add_nic(lan, "10.0.0.200")
    probe = ProbeClient(client, vips[0], interval=0.05)
    probe.start()

    monkey = ChaosMonkey(sim, lan, hosts, wacks, config)
    sim.after(10.0, monkey.start)

    auditor = CoverageAuditor(wacks)
    view_violations = 0
    while sim.now < SOAK_SECONDS:
        sim.run_for(2.0)
        auditor.daemons = list(monkey.wacks)
        # The agreed-membership invariant must hold at every sample.
        violations = auditor.check_by_view()
        assert violations == [], "at t={:.1f}: {}".format(sim.now, violations)

    # Quiesced: physical coverage and liveness restored.
    class FinalCluster:
        pass

    final = FinalCluster()
    final.sim = sim
    final.wacks = list(monkey.wacks)
    final.auditor = auditor
    assert settle_wack(final, timeout=60.0)
    live = [w for w in monkey.wacks if w.alive]
    assert len(live) >= 3
    assert all(w.machine.state == RUN and w.mature for w in live)
    assert auditor.check() == []
    assert monkey.actions >= 10
    # The probe kept seeing service for the overwhelming share of the run.
    assert probe.response_rate() > 0.80

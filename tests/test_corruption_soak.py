"""Corruption-churn soak: ten simulated minutes of state mutation.

The self-stabilization claim is asymptotic — from *any* reachable
state the cluster converges back to exactly-once VIP coverage — so
beyond the bounded ``repro check --corrupt`` campaigns this soak keeps
corrupting state on a random clock for the whole window, mixed with
the fail-stop churn of the chaos soak, and demands three things:

* no *persistent* view-relative coverage violation at any sample (a
  corruption may open a bounded window; the debounce mirrors the
  corrupt campaign's grace);
* full quiesce back to exactly-once physical coverage at the end;
* measured time-to-stabilize: the trace-derived spans for audited
  corruption kinds close, with a sane median.
"""

import statistics

import pytest

from helpers import settle_wack

from repro.gcs.config import SpreadConfig
from repro.check.schedule import REPERTOIRES
from repro.core.audit import CoverageAuditor
from repro.core.config import WackamoleConfig
from repro.core.daemon import WackamoleDaemon
from repro.gcs.daemon import SpreadDaemon
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.obs.spans import stabilization_spans
from repro.sim.simulation import Simulation

pytestmark = pytest.mark.soak

SOAK_SECONDS = 600.0
N_SERVERS = 5
N_VIPS = 8
#: The corrupt campaign's grace: audit tick + repair round trip.
VIOLATION_GRACE = REPERTOIRES["corrupt"].grace


class CorruptionMonkey:
    """Random corruption + fail-stop driver with eventual healing."""

    def __init__(self, sim, lan, hosts, spreads, wacks, spread_config, wconfig):
        self.sim = sim
        self.lan = lan
        self.hosts = hosts
        self.spreads = spreads
        self.wacks = wacks
        self.spread_config = spread_config
        self.wconfig = wconfig
        self.faults = FaultInjector(sim)
        self.rng = sim.rng.stream("corruption-chaos")
        self.actions = 0
        self.corruptions = 0
        self.partitions = []  # handles of the cuts this monkey opened

    def start(self):
        self._schedule_next()

    def _schedule_next(self):
        self.sim.after(self.rng.uniform(3.0, 12.0), self._act)

    def _act(self):
        if self.sim.now > SOAK_SECONDS - 60.0:
            # Quiet period: heal everything, stop acting.
            for fault in self.partitions:
                fault.undo()
            for host in self.hosts:
                if host.alive:
                    for nic in host.nics:
                        if not nic.up:
                            self.faults.nic_up(nic)
            return
        self.actions += 1
        live = [i for i, w in enumerate(self.wacks) if w.alive and self.hosts[i].alive]
        choice = self.rng.random()
        if choice < 0.15 and len(live) > 2:
            index = self.rng.choice(live)
            self.faults.crash_host(self.hosts[index])
            self.sim.after(self.rng.uniform(15.0, 30.0), self._revive, index)
        elif choice < 0.30:
            index = self.rng.choice(range(len(self.hosts)))
            nic = self.hosts[index].nics[0]
            if nic.up:
                self.faults.nic_down(nic)
                self.sim.after(self.rng.uniform(8.0, 20.0), self.faults.nic_up, nic)
        elif choice < 0.40:
            split = self.rng.randint(1, len(self.hosts) - 1)
            fault = self.faults.partition(self.lan, [self.hosts[:split]])
            self.partitions.append(fault)
            self.sim.after(self.rng.uniform(8.0, 20.0), fault.undo)
        elif live:
            self.corruptions += 1
            index = self.rng.choice(live)
            kind = self.rng.random()
            if kind < 0.30:
                self.faults.corrupt_vip_table(self.wacks[index])
            elif kind < 0.55:
                self.faults.corrupt_membership(self._spread(index))
            elif kind < 0.80:
                self.faults.corrupt_sequence(self._spread(index))
            else:
                self.faults.corrupt_epoch(self._spread(index))
        self._schedule_next()

    def _spread(self, index):
        return self.hosts[index].spread_daemon

    def _revive(self, index):
        host = self.hosts[index]
        if host.alive:
            return
        self.faults.recover_host(host)
        spread = SpreadDaemon(
            host,
            self.lan,
            self.spread_config,
            daemon_id="{}-r{}".format(host.name, self.actions),
        )
        wack = WackamoleDaemon(host, spread, self.wconfig)
        spread.start()
        wack.start()
        self.spreads[index] = spread
        self.wacks[index] = wack


def test_ten_minute_corruption_soak():
    sim = Simulation(
        seed=20260808,
        trace_enabled=True,
        trace_categories=("fault", "stabilize", "membership", "supervisor"),
    )
    lan = Lan(sim, "lan", "10.0.0.0/24")
    spread_config = SpreadConfig.fast(
        fault_detection_timeout=1.0,
        heartbeat_timeout=0.4,
        discovery_timeout=1.4,
        profile="stabilizing",
    )
    vips = ["10.0.0.{}".format(100 + i) for i in range(N_VIPS)]
    wconfig = WackamoleConfig.for_vips(
        vips,
        maturity_timeout=1.0,
        balance_timeout=3.0,
        profile="stabilizing",
    )
    hosts, spreads, wacks = [], [], []
    for index in range(N_SERVERS):
        host = Host(sim, "s{}".format(index))
        host.add_nic(lan, "10.0.0.{}".format(10 + index))
        spread = SpreadDaemon(host, lan, spread_config)
        wack = WackamoleDaemon(host, spread, wconfig)
        sim.after(0.05 * index, spread.start)
        sim.after(0.05 * index + 0.01, wack.start)
        hosts.append(host)
        spreads.append(spread)
        wacks.append(wack)

    monkey = CorruptionMonkey(sim, lan, hosts, spreads, wacks, spread_config, wconfig)
    sim.after(10.0, monkey.start)

    auditor = CoverageAuditor(wacks)
    first_seen = {}
    while sim.now < SOAK_SECONDS:
        sim.run_for(0.5)
        auditor.daemons = list(monkey.wacks)
        violations = auditor.check_by_view()
        seen = {}
        for violation in violations:
            key = (violation.kind, violation.slot)
            seen[key] = first_seen.get(key, sim.now)
            age = sim.now - seen[key]
            assert age < VIOLATION_GRACE, "unrepaired at t={:.1f}: {}".format(
                sim.now, violation
            )
        first_seen = seen

    # Quiesced: exactly-once physical coverage and liveness restored.
    class FinalCluster:
        pass

    final = FinalCluster()
    final.sim = sim
    final.wacks = list(monkey.wacks)
    final.auditor = auditor
    assert settle_wack(final, timeout=60.0)
    assert auditor.check() == []
    assert monkey.actions >= 20
    assert monkey.corruptions >= 10

    # Time-to-stabilize: every audited corruption span closed, and the
    # detect-repair loop is fast (bounded by the audit cadence plus a
    # repair round, not by luck).
    spans = stabilization_spans(sim.trace.records)
    assert len(spans) >= 10
    open_spans = [s for s in spans if s.end is None and s.mutation != "poison_arp"]
    assert open_spans == [], "unstabilized corruptions: {}".format(open_spans)
    durations = [s.duration for s in spans if s.end is not None]
    assert durations and statistics.median(durations) < 5.0
    total_repairs = sum(
        getattr(d, "stabilize_repairs", 0) for d in monkey.spreads
    ) + sum(getattr(w, "stabilize_repairs", 0) for w in monkey.wacks)
    assert total_repairs >= 1

"""Disposable trial clusters and deterministic schedule application.

The harness rebuilds, for each trial, the same shape of cluster the
tests use (one LAN, ``n`` servers each running GCS + Wackamole) and
turns a :class:`~repro.check.schedule.FaultSchedule` into scheduled
:class:`~repro.net.fault.FaultInjector` calls; a composing fault ends
through its own :class:`~repro.net.fault.Fault`. Every guard in the
appliers depends only on simulated state, so the whole trial stays a
pure function of (seed, schedule).
"""

from functools import partial

from repro.apps.cluster import ServerGroup, run_until
from repro.core.config import WackamoleConfig
from repro.gcs.config import SpreadConfig
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.linkfault import GilbertElliott

from repro.check import schedule as sched

#: Corruptions of a host's GCS daemon state, by schedule kind.
_GCS_CORRUPTIONS = {
    sched.CORRUPT_MEMBERSHIP: FaultInjector.corrupt_membership,
    sched.CORRUPT_SEQUENCE: FaultInjector.corrupt_sequence,
    sched.CORRUPT_EPOCH: FaultInjector.corrupt_epoch,
}

#: The most servers and VIPs one trial LAN numbers: servers .10 up, VIPs
#: .100 up, flow clients .200.
ADDRESS_PLAN = {"servers": 90, "vips": 100}


class CheckCluster(ServerGroup):
    """One LAN of ``n`` fail-over servers, built for a single trial."""

    SUBNET = "10.9.0.0/24"

    def __init__(
        self,
        sim,
        n_servers,
        n_vips,
        daemon_cls,
        gray=False,
        corrupt=False,
    ):
        for field, size in (("servers", n_servers), ("vips", n_vips)):
            if size > ADDRESS_PLAN[field]:
                raise ValueError("n_{} exceeds the address plan (at most {})".format(
                    field, ADDRESS_PLAN[field]))
        self.vips = ["10.9.0.{}".format(100 + i) for i in range(n_vips)]
        super().__init__(
            sim,
            Lan(sim, "check", self.SUBNET),
            SpreadConfig.fast(),
            WackamoleConfig.for_vips(self.vips, maturity_timeout=0.5, balance_timeout=1.5),
            daemon_cls,
            sched.repertoire(gray, corrupt).profile,
        )
        self.faults = FaultInjector(sim)
        for index in range(n_servers):
            host = Host(sim, "s{}".format(index))
            host.add_nic(self.lan, "10.9.0.{}".format(10 + index))
            self.add(host)

    def attach_flow(self, flow_users, flow_rate=1.0):
        """The trial's aggregate clients (see :meth:`ServerGroup.attach_flow`)."""
        super().attach_flow("check", "10.9.0.200", self.vips, flow_users, flow_rate)

    def start(self, stagger=0.03):
        """Boot every daemon with a small start stagger."""
        return super().start(stagger)

    def settle(self, timeout=30.0, step=0.2):
        """Run until :meth:`settled` holds (True) or timeout (False)."""
        return run_until(self.sim, self.settled, timeout, step, extra=step)

    # ------------------------------------------------------------------
    # schedule application

    def apply_schedule(self, schedule, start_time):
        """Schedule every fault event relative to ``start_time``."""
        for event in schedule.events:
            self.sim.at(start_time + event.time, self._apply_event, event)

    def _apply_event(self, event):
        end = self._inject(event)
        if end is not None:
            self.sim.after(event.duration, end)

    def _inject(self, event):
        """Apply one event; returns the callable that ends it, or None."""
        if event.kind in (sched.PARTITION, sched.ASYM_PARTITION):
            group = [self.hosts[i] for i in event.split]
            if len(group) == len(self.hosts):
                return None
            if event.kind == sched.PARTITION:
                return self.faults.partition(self.lan, [group]).undo
            return self.faults.asym_partition(self.lan, group).undo
        if event.kind == sched.BURST_LOSS:
            model = GilbertElliott(loss_bad=event.param if event.param else 0.9)
            return self.faults.burst_loss_on(self.lan, model).undo
        host = self.hosts[event.host]
        if not host.alive:
            return None
        if event.kind == sched.NIC_FLAP:
            nic = host.nics[0]
            if nic.up:
                self.faults.nic_down(nic)
                return partial(self._restore_nic, nic)
        elif event.kind == sched.CRASH:
            # Never take the cluster below two live servers: the
            # properties under test concern surviving components.
            if sum(1 for h in self.hosts if h.alive) > 2:
                self.faults.crash_host(host)
                return partial(self._revive, event.host)
        elif event.kind == sched.LEAVE:
            wack = self.wacks[event.host]
            if wack.alive:
                wack.shutdown()
                return partial(self._rejoin, event.host)
        elif event.kind == sched.SLOW_HOST:
            return self.faults.slow_host(host, event.param if event.param else 2.0).undo
        elif event.kind == sched.CLOCK_SKEW:
            return self.faults.skew_clock(host, event.param if event.param else 2.0).undo
        elif event.kind == sched.DAEMON_WEDGE:
            spread = getattr(host, "spread_daemon", None)
            if spread is not None and spread.alive and not spread.wedged:
                self.faults.wedge_daemon(spread)
                # Failsafe: if no supervisor replaced it by then, unwedge.
                return partial(self._unwedge, spread)
        elif event.kind == sched.CORRUPT_VIP_TABLE:
            wack = self.wacks[event.host]
            if wack.alive:
                self.faults.corrupt_vip_table(wack)
        elif event.kind in _GCS_CORRUPTIONS:
            spread = self._corruptible_spread(event.host)
            if spread is not None:
                _GCS_CORRUPTIONS[event.kind](self.faults, spread)
        return None

    def _corruptible_spread(self, index):
        """The host's live, unwedged GCS daemon, or None.

        Corrupting a dead or wedged daemon's state would be invisible
        (the supervisor replaces it wholesale), so those injections are
        skipped the same way a crash on a dead host is.
        """
        host = self.hosts[index]
        spread = getattr(host, "spread_daemon", None)
        if (
            not host.alive
            or spread is None
            or not spread.alive
            or not spread.started
            or spread.wedged
        ):
            return None
        return spread

    def _restore_nic(self, nic):
        if nic.host.alive and not nic.up:
            self.faults.nic_up(nic)

    def _unwedge(self, spread):
        if spread.alive and spread.wedged:
            self.faults.unwedge_daemon(spread)

    def _revive(self, index):
        host = self.hosts[index]
        if host.alive:
            return
        self.faults.recover_host(host)
        self.restart(index)

    def _rejoin(self, index):
        host = self.hosts[index]
        if not host.alive or self.wacks[index].alive:
            return
        wack = self.daemon_cls(host, host.spread_daemon, self.wackamole_config)
        wack.start()
        self.wacks[index] = wack

"""The cluster kit: the building block every faithful scenario is made of.

The paper describes one thing — N servers on a LAN, each running a GCS
daemon and a Wackamole daemon over a shared VIP pool — and every
scenario in the repo is that thing plus extras (a router and a probe,
RIP speakers, a fault schedule). This module holds the thing itself
for the faithful stack (the scale stack's cell is
:class:`repro.apps.scalecluster.ScaleCell`):

* :class:`ServerGroup` — the faithful stack. ``add(host)`` puts a
  Spread + Wackamole pair (and, when the profile asks, a
  :class:`~repro.core.supervisor.DaemonSupervisor`) on a host the
  caller already wired to the LAN; ``start`` boots them staggered;
  ``settled`` is the one "cluster is up" predicate; ``restart`` brings
  the pair back after a host recovery.
  :func:`measure_failover` is the one §6 measurement — break the
  owner, watch, read the client and the trace — and :class:`Failover`
  what it returns.

Scenarios own everything that differs between them — the simulation,
LANs and address plans, the hosts themselves, clients and traffic.
The faithful scenarios and the check harness subclass
:class:`ServerGroup`.
"""

import copy
import functools

from repro.core.audit import CoverageAuditor, CoverageEngine
from repro.core.daemon import WackamoleDaemon
from repro.core.state import RUN
from repro.core.supervisor import DaemonSupervisor
from repro.flow import ArpViewResolver, FlowEngine
from repro.gcs.daemon import SpreadDaemon
from repro.net.host import Host
from repro.obs.episodes import EpisodeFold, first_complete_episode
from repro.sim.rng import RngRegistry
from repro.stabilization import lookup


def run_until(sim, predicate, timeout, step, extra=0.0):
    """Advance ``sim`` in ``step``-second strides until ``predicate()``.

    Returns True — after ``extra`` more seconds of quiet running — at
    the first stride boundary where the predicate holds, or False once
    ``timeout`` has elapsed without it.
    """
    deadline = sim.now + timeout
    while sim.now < deadline:
        sim.run_for(step)
        if predicate():
            if extra:
                sim.run_for(extra)
            return True
    return False


def servers_settled(wacks, auditor):
    """Every live daemon RUN, mature, connected — and coverage exact."""
    live = [w for w in wacks if w.alive]
    return bool(
        live
        and all(w.machine.state == RUN and w.mature for w in live)
        and all(
            w.client is not None and w.client.connected and w.view is not None
            for w in live
        )
        and not auditor.check()
    )


# ----------------------------------------------------------------------
# the faithful stack


def _running(config, profile):
    """A copy of a layer's config that runs ``profile``."""
    config = copy.copy(config)
    config.profile = lookup(profile)
    return config


class ServerGroup:
    """N servers of one LAN running Spread + Wackamole over one VIP pool.

    The four columns (``hosts``, ``spreads``, ``wacks``,
    ``supervisors``) are index-aligned and always name the *current*
    daemon generation: restarts — by :meth:`restart` or by a supervisor
    — replace entries in place. ``supervisors`` stays empty under the
    unsupervised ``paper`` profile. The auditor holds its own copy of
    the daemon column; :meth:`refresh_auditor` (which :meth:`settled`
    calls) re-points it after replacements.

    ``profile`` (a name of :data:`repro.stabilization.PROFILES` or a
    row) is the cluster's hardening, stamped on copies of both configs;
    None runs the row the configs already carry. The supervisors follow
    the Wackamole config's row.
    """

    def __init__(
        self,
        sim,
        lan,
        spread_config,
        wackamole_config,
        daemon_cls=WackamoleDaemon,
        profile=None,
        realtime=False,
    ):
        if profile is not None:
            spread_config = _running(spread_config, profile)
            wackamole_config = _running(wackamole_config, profile)
        self.sim = sim
        self.lan = lan
        self.spread_config = spread_config
        self.wackamole_config = wackamole_config
        self.daemon_cls = daemon_cls
        self.supervision = wackamole_config.profile.supervisor
        self.realtime = realtime
        self.hosts = []
        self.spreads = []
        self.wacks = []
        self.supervisors = []
        self.restarts = 0
        self.auditor = CoverageAuditor(())
        self.flow_engine = None
        self.flow_host = None
        sim.trace.fold(EpisodeFold)  # episodes outlive the trace window

    def add(self, host):
        """Give ``host`` (already on the LAN) its daemon pair."""
        index = len(self.hosts)
        spread, wack = self._pair(host)
        self.hosts.append(host)
        self.spreads.append(spread)
        self.wacks.append(wack)
        self.auditor.daemons.append(wack)
        if self.supervision is not None:
            self.supervisors.append(self._supervisor(index, wack))
        return wack

    def _pair(self, host, daemon_id=None):
        spread = SpreadDaemon(
            host,
            self.lan,
            self.spread_config,
            daemon_id=daemon_id,
            realtime=self.realtime,
        )
        return spread, self.daemon_cls(host, spread, self.wackamole_config)

    def _supervisor(self, index, wack):
        supervisor = DaemonSupervisor(
            self.hosts[index],
            self.supervision,
            on_restart=functools.partial(self._on_restart, index),
        )
        supervisor.watch_wackamole(wack)
        return supervisor

    def _on_restart(self, index, kind, old, new):
        column = self.spreads if kind == "spread" else self.wacks
        if column[index] is old:
            column[index] = new

    def start(self, stagger=0.05):
        """Boot the daemons with a small start stagger (like real init)."""
        for index, (spread, wack) in enumerate(zip(self.spreads, self.wacks)):
            self.sim.after(stagger * index, spread.start)
            self.sim.after(stagger * index + 0.01, wack.start)
        for supervisor in self.supervisors:
            supervisor.start()
        if self.flow_engine is not None:
            self.flow_engine.start()
        return self

    def attach_flow(self, name, address, vips, users, rate=1.0, tick=0.05):
        """Aggregate clients spread evenly across ``vips`` (before :meth:`start`).

        The pools resolve through a dedicated client host's ARP view at
        ``address``, so spoofed announcements repair their path exactly
        as they repair a prober's and the flow totals price exactly the
        outage windows the faults open.
        """
        self.flow_host = Host(self.sim, "flowclients")
        self.flow_host.add_nic(self.lan, address)
        resolver = ArpViewResolver(self.lan, self.flow_host)
        self.flow_engine = FlowEngine(self.sim, resolver=resolver, tick=tick, name=name)
        self.flow_engine.add_uniform_pools(vips, users, rate=rate)

    def restart(self, index):
        """Boot a fresh daemon pair on a host that just recovered.

        The crash killed every service on the machine, the supervisor
        included; the rebooted host gets new ones under a new daemon id.
        """
        host = self.hosts[index]
        self.restarts += 1
        spread, wack = self._pair(
            host, daemon_id="{}-r{}".format(host.name, self.restarts)
        )
        spread.start()
        wack.start()
        self.spreads[index] = spread
        self.wacks[index] = wack
        if self.supervision is not None:
            self.supervisors[index] = self._supervisor(index, wack)
            self.supervisors[index].start()

    def refresh_auditor(self):
        """Point the auditor at the current daemon generation."""
        self.auditor.daemons = list(self.wacks)
        return self.auditor

    def settled(self):
        """:func:`servers_settled` over the current daemon generation."""
        return servers_settled(self.wacks, self.refresh_auditor())

    def watch_coverage(self, grace=0.0):
        """Attach a :class:`CoverageEngine` auditing the current generation."""
        return CoverageEngine(self.sim, lambda: self.refresh_auditor().audit(), grace)


# ----------------------------------------------------------------------
# the §6 measurement


def fault_phase(seed):
    """Where in a heartbeat interval trial ``seed``'s fault falls, in [0, 1).

    §6 draws the fault instant uniformly inside a heartbeat interval so
    the detection-phase randomness ([fd - hb, fd]) is sampled across
    trials; callers scale the draw by their heartbeat timeout.
    """
    return RngRegistry(seed).stream("fault_phase").uniform(0.0, 1.0)


def _host_name(daemon):
    return None if daemon is None else daemon.host.name


class Failover:
    """What one injected fault did, as the client and the trace saw it.

    ``interruption`` is §6's number — the gap between the victim's last
    reply and the takeover server's first — and ``longest_gap`` the
    longest silence after the fault; both are None without a probe.
    ``victim`` and ``takeover`` are host names (None when not told).
    """

    def __init__(self, sim, probe, fault_time, victim, takeover):
        self.sim = sim
        self.fault_time = fault_time
        self.victim = _host_name(victim)
        self.takeover = _host_name(takeover)
        self.interruption = self.longest_gap = None
        if probe is not None:
            self.interruption = probe.failover_interruption(after=self.fault_time)
            self.longest_gap = probe.longest_gap(after=self.fault_time)

    @functools.cached_property
    def episodes(self):
        """The episodes the trace's :class:`EpisodeFold` holds when first read."""
        return tuple(self.sim.trace.fold(EpisodeFold).episodes)

    def failover_episode(self):
        """The complete episode caused by the injected fault, or None."""
        return first_complete_episode(self.episodes, after=self.fault_time)


def measure_failover(sim, fail, watch, probe=None, owner=None):
    """Break the owner now, watch for ``watch`` seconds, read what happened.

    ``fail()`` injects the fault and returns the victim daemon (or
    None); ``owner()`` is the daemon serving the address afterwards.
    Booting, settling and when the probe starts are the caller's: they
    differ between the paper's trials, the quickstart and ``repro flow``.
    """
    fault_time = sim.now
    victim = fail()
    sim.run_for(watch)
    if probe is not None:
        probe.stop_probing()
    return Failover(sim, probe, fault_time, victim, owner() if owner else None)

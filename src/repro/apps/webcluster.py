"""The Figure 3 layout: N-way fail-over for a web cluster.

One router fronts a LAN of web servers. Every server runs a GCS daemon
and a Wackamole daemon managing a shared pool of virtual addresses;
an echo service stands in for the web server; a probe client on the
same segment measures availability exactly as in §6.
"""

import functools

from repro.apps.cluster import ServerGroup, measure_failover, run_until
from repro.apps.workload import ProbeClient, UdpEchoServer
from repro.core.config import WackamoleConfig
from repro.gcs.config import SpreadConfig
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.router import Router
from repro.sim.simulation import Simulation
from repro.sim.trace import TRACE_WINDOW


class WebClusterScenario(ServerGroup):
    """One simulated web cluster: a ServerGroup behind a router, probed."""

    SUBNET = "198.51.100.0/24"

    def __init__(
        self,
        seed=0,
        n_servers=3,
        n_vips=10,
        spread_config=None,
        wackamole_overrides=None,
        flow_users=0,
        flow_rate=1.0,
        flow_tick=0.05,
        trace_enabled=True,
        trace_capacity=TRACE_WINDOW,
        metrics_enabled=True,
        sim=None,
    ):
        # Address plan: servers .10 up, VIPs .150 up, clients .200/.201.
        if n_servers > 140:
            raise ValueError("n_servers exceeds the address plan (at most 140)")
        if n_vips > 50:
            raise ValueError("n_vips exceeds the address plan (at most 50)")
        self.sim = sim if sim is not None else Simulation(
            seed=seed,
            trace_enabled=trace_enabled,
            trace_capacity=trace_capacity,
            metrics_enabled=metrics_enabled,
        )
        self.lan = Lan(self.sim, "cluster", self.SUBNET)
        self.faults = FaultInjector(self.sim)

        self.router = Router(self.sim, "router")
        self.router.add_nic(self.lan, "198.51.100.1")

        self.vips = ["198.51.100.{}".format(150 + i) for i in range(n_vips)]
        overrides = dict(wackamole_overrides or {})
        overrides.setdefault("notify_ips", ("198.51.100.1",))
        super().__init__(
            self.sim,
            self.lan,
            spread_config or SpreadConfig.default(),
            WackamoleConfig.for_vips(self.vips, **overrides),
        )

        self.echo_servers = []
        for index in range(n_servers):
            host = Host(self.sim, "web{}".format(index + 1))
            host.add_nic(self.lan, "198.51.100.{}".format(10 + index))
            host.set_default_gateway("198.51.100.1")
            self.add(host)
            self.echo_servers.append(UdpEchoServer(host))

        self.client_host = Host(self.sim, "client")
        self.client_host.add_nic(self.lan, "198.51.100.200")
        self.client_host.set_default_gateway("198.51.100.1")
        self.probe = None

        # The flow plane: ``flow_users`` aggregate clients spread evenly
        # across the VIPs, seen from their own client host.
        if flow_users:
            self.attach_flow(
                "web", "198.51.100.201", self.vips, flow_users, flow_rate, flow_tick
            )

    # ------------------------------------------------------------------

    def start_probe(self, vip=None):
        """Attach the §6 probe client (10 ms) to one virtual address."""
        target = vip if vip is not None else self.vips[0]
        self.probe = ProbeClient(self.client_host, target)
        self.probe.start()
        return self.probe

    def run_until_stable(self, timeout=60.0, extra=0.5):
        """Run until every daemon reaches RUN and coverage is complete."""
        step = max(self.spread_config.heartbeat_timeout / 2.0, 0.1)
        return run_until(self.sim, self.settled, timeout, step, extra)

    # ------------------------------------------------------------------
    # convenience accessors

    def owner_of(self, vip):
        """The Wackamole daemon currently binding ``vip``, or None."""
        for wack in self.wacks:
            if wack.alive and wack.host.owns_ip(vip):
                return wack
        return None

    def coverage(self):
        """{vip: [host names binding it]} over live servers."""
        result = {}
        for vip in self.vips:
            result[vip] = [
                w.host.name for w in self.wacks if w.alive and w.host.owns_ip(vip)
            ]
        return result

    def kill_owner_of(self, vip, mode="nic_down"):
        """Inject the §6 fault against the current owner of ``vip``.

        ``nic_down`` disconnects the interface (the paper's fault);
        ``crash`` fail-stops the whole host; ``shutdown`` leaves
        gracefully. Returns the victim daemon.
        """
        owner = self.owner_of(vip)
        if owner is None:
            raise RuntimeError("no live owner for {}".format(vip))
        if mode == "nic_down":
            self.faults.nic_down(owner.host.nic_on(self.lan))
        elif mode == "crash":
            self.faults.crash_host(owner.host)
        elif mode == "shutdown":
            owner.shutdown()
        else:
            raise ValueError("unknown fault mode {!r}".format(mode))
        return owner

    def measure_failover(self, mode, watch):
        """:func:`~repro.apps.cluster.measure_failover` of ``vips[0]``'s owner."""
        fail = functools.partial(self.kill_owner_of, self.vips[0], mode)
        owner = functools.partial(self.owner_of, self.vips[0])
        return measure_failover(self.sim, fail, watch, self.probe, owner)

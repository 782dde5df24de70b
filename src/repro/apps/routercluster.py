"""The Figure 4 layout: N-way fail-over for routers.

Multiple physical routers act as one *virtual router* present on three
networks (external, visible/web, private/db). The virtual router's
addresses — one per network — form an indivisible VIP group that
Wackamole moves as a unit, so whichever physical router holds them can
route between all three networks.

Three routing modes reproduce §5.2:

* ``static`` — no dynamic routing anywhere; pure fail-over cost.
* ``naive`` — only the active router participates in the dynamic
  routing protocol; after a fail-over the new active router must wait
  for the next advertisement round (~30 s with RIP defaults) before it
  can forward off-link traffic.
* ``advertise_all`` — every physical router participates continuously
  and advertises the internal networks, so a fail-over costs only the
  Wackamole reconfiguration.
"""

import functools

from repro.apps.cluster import ServerGroup, measure_failover, run_until
from repro.apps.routing import RipSpeaker
from repro.apps.workload import ProbeClient, UdpEchoServer
from repro.flow import ArpViewResolver, FlowEngine, FlowPool
from repro.core.config import VipGroup, WackamoleConfig
from repro.gcs.config import SpreadConfig
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.router import Router
from repro.sim.process import Process
from repro.sim.simulation import Simulation

VIRTUAL_ROUTER_SLOT = "virtual-router"

EXTERNAL_SUBNET = "198.51.100.0/24"
VISIBLE_SUBNET = "203.0.113.0/24"
PRIVATE_SUBNET = "192.168.0.0/24"
INTERNET_SUBNET = "8.8.8.0/24"

EXTERNAL_VIP = "198.51.100.1"
VISIBLE_VIP = "203.0.113.101"
PRIVATE_VIP = "192.168.0.1"


class _OwnershipController(Process):
    """Couples RIP listening to virtual-router ownership (naive mode)."""

    def __init__(self, wack, speakers, poll_interval=0.25):
        super().__init__(wack.sim, "ripctl@{}".format(wack.host.name))
        self.wack = wack
        self.speakers = speakers
        wack.host.register_service(self)
        self._poll = self.periodic(self._check, poll_interval, name="poll")

    def start(self):
        self._poll.start(first_delay=0.0)

    def _check(self):
        active = self.wack.iface.owns(VIRTUAL_ROUTER_SLOT)
        for speaker in self.speakers:
            speaker.set_listening(active)


def _routable_gate(routing_mode):
    """Service gate for router flow pools: the owner must route off-link.

    Static mode always has its routes; the dynamic modes only serve
    once the owning router has learned a path to the probed internet
    host — the same readiness predicate ``run_until_stable`` uses.
    """
    if routing_mode == "static":
        return None

    def routable(owner):
        return owner.lookup_route("8.8.8.8") is not None

    return routable


class RouterClusterScenario(ServerGroup):
    """One virtual-router deployment: a ServerGroup of routers on three LANs."""

    def __init__(
        self,
        seed=0,
        n_routers=2,
        routing_mode="static",
        spread_config=None,
        wackamole_overrides=None,
        rip_interval=30.0,
        flow_users=0,
        trace_enabled=True,
        arp_share=False,
    ):
        if routing_mode not in ("static", "naive", "advertise_all"):
            raise ValueError("unknown routing mode {!r}".format(routing_mode))
        self.routing_mode = routing_mode
        self.sim = Simulation(seed=seed, trace_enabled=trace_enabled)
        self.faults = FaultInjector(self.sim)

        self.external = Lan(self.sim, "external", EXTERNAL_SUBNET)
        self.visible = Lan(self.sim, "visible", VISIBLE_SUBNET)
        self.private = Lan(self.sim, "private", PRIVATE_SUBNET)
        self.internet = Lan(self.sim, "internet", INTERNET_SUBNET)

        # Upstream router: the organisation's border toward the internet.
        self.upstream = Router(self.sim, "upstream")
        self.upstream.add_nic(self.external, "198.51.100.254")
        self.upstream.add_nic(self.internet, "8.8.8.1")

        # The machine "on the internet" running the probed service.
        self.internet_host = Host(self.sim, "internet-host")
        self.internet_host.add_nic(self.internet, "8.8.8.8")
        self.internet_host.set_default_gateway("8.8.8.1")
        self.echo = UdpEchoServer(self.internet_host)

        # Internal hosts on the two served networks.
        self.web_host = Host(self.sim, "web-host")
        self.web_host.add_nic(self.visible, "203.0.113.10")
        self.web_host.set_default_gateway(VISIBLE_VIP)
        self.db_host = Host(self.sim, "db-host")
        self.db_host.add_nic(self.private, "192.168.0.10")
        self.db_host.set_default_gateway(PRIVATE_VIP)

        self.rip_interval = rip_interval
        overrides = dict(wackamole_overrides or {})
        overrides.setdefault("balance_enabled", False)
        if arp_share:
            # §5.2: daemons periodically exchange their ARP caches so a
            # new owner can notify exactly the hosts that resolved the
            # virtual router's MAC, instead of broadcasting.
            overrides.setdefault("arp_share_interval", 5.0)
        vip_group = VipGroup(
            VIRTUAL_ROUTER_SLOT, [EXTERNAL_VIP, VISIBLE_VIP, PRIVATE_VIP]
        )
        # The daemons talk over the private network.
        super().__init__(
            self.sim,
            self.private,
            spread_config or SpreadConfig.tuned(),
            WackamoleConfig([vip_group], **overrides),
        )
        self.routers = self.hosts
        self.speakers = []
        self.controllers = []
        for index in range(n_routers):
            router = Router(self.sim, "router{}".format(index + 1))
            router.add_nic(self.external, "198.51.100.{}".format(2 + index))
            router.add_nic(self.visible, "203.0.113.{}".format(102 + index))
            router.add_nic(self.private, "192.168.0.{}".format(2 + index))
            self._setup_routing(router, self.add(router))

        self._setup_upstream_routing()
        self.probe = None

        # The flow plane: internal populations behind each served LAN
        # aim at their gateway VIP through that LAN's own ARP viewpoint;
        # the ``require`` gate additionally demands the owning router
        # can actually route off-link (§5.2's naive-mode stall shows up
        # as ``no_route`` loss even while the VIP itself is answered).
        self.flow_hosts = []
        if flow_users:
            self.flow_engine = FlowEngine(self.sim, name="router")
            routable = _routable_gate(self.routing_mode)
            share = int(flow_users) // 2
            for pool_name, lan, address, vip, users in (
                ("web-pool", self.visible, "203.0.113.200", VISIBLE_VIP, int(flow_users) - share),
                ("db-pool", self.private, "192.168.0.200", PRIVATE_VIP, share),
            ):
                if not users:
                    continue
                client = Host(self.sim, "flow-{}".format(lan.name))
                client.add_nic(lan, address)
                client.set_default_gateway(vip)
                self.flow_hosts.append(client)
                resolver = ArpViewResolver(lan, client)
                self.flow_engine.add_pool(
                    FlowPool(pool_name, vip, users, require=routable, resolver=resolver)
                )

    # ------------------------------------------------------------------
    # routing plumbing

    def _setup_routing(self, router, wack):
        if self.routing_mode == "static":
            router.add_route(INTERNET_SUBNET, "198.51.100.254")
            return
        originate = (
            (VISIBLE_SUBNET, PRIVATE_SUBNET)
            if self.routing_mode == "advertise_all"
            else ()
        )
        speaker = RipSpeaker(
            router,
            self.external,
            originate=originate,
            interval=self.rip_interval,
            listening=(self.routing_mode == "advertise_all"),
        )
        self.speakers.append(speaker)
        if self.routing_mode == "naive":
            self.controllers.append(_OwnershipController(wack, [speaker]))

    def _setup_upstream_routing(self):
        if self.routing_mode == "advertise_all":
            # The border router learns the internal networks dynamically
            # from whichever physical routers are alive.
            self.upstream_speaker = RipSpeaker(
                self.upstream,
                self.external,
                originate=(INTERNET_SUBNET,),
                interval=self.rip_interval,
                listening=True,
            )
        else:
            self.upstream.add_route(VISIBLE_SUBNET, EXTERNAL_VIP)
            self.upstream.add_route(PRIVATE_SUBNET, EXTERNAL_VIP)
            if self.routing_mode == "naive":
                self.upstream_speaker = RipSpeaker(
                    self.upstream,
                    self.external,
                    originate=(INTERNET_SUBNET,),
                    interval=self.rip_interval,
                    listening=False,
                )
            else:
                self.upstream_speaker = None

    # ------------------------------------------------------------------

    def start(self, stagger=0.05):
        """Boot every daemon (GCS, Wackamole, routing, controllers)."""
        super().start(stagger)
        for speaker in self.speakers:
            self.sim.after(0.02, speaker.start)
        if self.upstream_speaker is not None:
            self.sim.after(0.02, self.upstream_speaker.start)
        for controller in self.controllers:
            self.sim.after(0.03, controller.start)
        return self

    def start_probe(self, source="db"):
        """Probe the internet service from an internal host (§5.2 path)."""
        host = self.db_host if source == "db" else self.web_host
        self.probe = ProbeClient(host, "8.8.8.8")
        self.probe.start()
        return self.probe

    def run_until_stable(self, timeout=120.0, extra=0.5):
        """Run until the virtual router is owned once and all RUN."""
        step = max(self.spread_config.heartbeat_timeout / 2.0, 0.1)
        return run_until(
            self.sim,
            lambda: self.settled() and self._routing_ready(),
            timeout,
            step,
            extra,
        )

    def _routing_ready(self):
        active = self.active_router()
        if active is None:
            return False
        if self.routing_mode == "static":
            return True
        router = active.host
        return router.lookup_route("8.8.8.8") is not None

    # ------------------------------------------------------------------

    def active_router(self):
        """The Wackamole daemon currently holding the virtual router."""
        for wack in self.wacks:
            if wack.alive and wack.iface.owns(VIRTUAL_ROUTER_SLOT):
                return wack
        return None

    def fail_active(self, mode="crash"):
        """Fail the active physical router; returns the victim."""
        active = self.active_router()
        if active is None:
            raise RuntimeError("no active virtual router")
        if mode == "crash":
            self.faults.crash_host(active.host)
        elif mode == "shutdown":
            active.shutdown()
        else:
            raise ValueError("unknown fault mode {!r}".format(mode))
        return active

    def measure_failover(self, mode, watch):
        """:func:`~repro.apps.cluster.measure_failover` of the active router."""
        fail = functools.partial(self.fail_active, mode)
        return measure_failover(self.sim, fail, watch, self.probe, self.active_router)


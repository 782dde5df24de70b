"""A quiet flow tick costs one counter compare, not a walk over every pool.

``DirectResolver`` and ``ArpViewResolver`` keep their tables while the
LAN's change counter stands still, ``FlowEngine`` keeps each resolver's
answers while that resolver says so (a fault in one cell resolves that
cell's VIPs alone), and accounting visits only lossy pools.
These tests hold that to *counts* (``resolve`` calls, false
``begin_tick`` returns, address parses), never to wall clock, and to
bit-identity with two references: a resolver that forgets its last read
— i.e. resolves everything on every tick — and the compare-based quiet
test the counter replaced, kept here as the oracle for the write sites
(every tick the compare saw a change, the counter must see one too).
"""

import json
from unittest import mock

import pytest

from repro.apps.scalecluster import ScaleClusterScenario
from repro.flow import ArpViewResolver, DirectResolver, FlowEngine, FlowPool
from repro.net.addresses import IPAddress
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.linkfault import GilbertElliott
from repro.sim.simulation import Simulation

from helpers import shared


class Forgetful(DirectResolver):
    """The reference: forgets its last read, so every tick rebuilds."""

    def begin_tick(self):
        self._changes = None
        return super().begin_tick()


class ForgetfulArpView(ArpViewResolver):
    """The ARP-view reference: every tick rebuilds and resolves."""

    def begin_tick(self):
        self._changes = None
        return super().begin_tick()


def loss_terms(lan):
    model = lan.link_model
    return (model, model.expected_loss() if model is not None else None, lan.loss)


class ComparedDirect(DirectResolver):
    """The oracle: the compare-based quiet test the counter replaced.

    Everything a resolution depends on — who binds what, NIC and owner
    state, the LAN's loss terms — is read and compared by value with the
    last resolving tick's read; a difference rebuilds the owner table.
    """

    _compared = None

    def begin_tick(self):
        read = (
            [
                (nic, nic.up, nic.host.alive, nic.host.time_scale, nic.bound_values)
                for nic in self.lan.nics
            ],
            loss_terms(self.lan),
        )
        if read == self._compared:
            return True
        self._compared = read
        self._changes = None
        return super().begin_tick()


class ComparedArpView(ArpViewResolver):
    """The ARP-view oracle: the compare-based quiet test it replaced.

    The read covers every NIC of the LAN, the client's cache and the
    entries of the addresses asked since the last resolving tick (as
    stored, never aged) and the loss terms; with an unchanged read, the
    oldest of those entries must still be inside its lifetime on the
    client's clock. The baseline is taken before the tick's resolves.
    """

    _compared = None

    def __init__(self, lan, client_host):
        super().__init__(lan, client_host)
        self._asked = {}

    def begin_tick(self):
        lan, client_nic = self.lan, self._client_nic
        cache = self.client_host.arp.cache
        entries = [(ip, cache.peek(ip)) for ip in self._asked]
        read = (
            lan.nics,
            [
                (
                    nic.up,
                    nic.host.alive,
                    nic.host.time_scale,
                    nic.bound_values,
                    lan.connected(client_nic, nic),
                )
                for nic in lan.nics
            ],
            cache,
            entries,
            loss_terms(lan),
        )
        if read == self._compared:
            refreshed = [entry.updated_at for _ip, entry in entries if entry is not None]
            now = self._scheduler._now + self.client_host.clock_skew
            if not refreshed or now - min(refreshed) <= cache.lifetime:
                return True
        self._compared = read
        self._asked = {}
        self._changes = None
        return super().begin_tick()

    def resolve(self, vip):
        self._asked[IPAddress(vip)] = None
        return super().resolve(vip)


def covers(counted, compared):
    """True when every tick the oracle resolved, the counter resolved too."""
    assert len(counted) == len(compared)
    return all(not quiet for quiet, seen in zip(counted, compared) if not seen)


class Recorder:
    """Counts what the engine asks of a scenario's resolvers.

    The engine begins every resolver once a tick, in order; a tick's
    entry in ``begins`` is false when any of them was (the engine then
    resolves that resolver's VIPs again, and only those).
    """

    def __init__(self, resolvers):
        self.begins = []
        self.resolves = 0
        for position, resolver in enumerate(resolvers):
            self._wrap(resolver, position == 0)

    def _wrap(self, resolver, first):
        begin_tick, resolve = resolver.begin_tick, resolver.resolve

        def counted_begin():
            unchanged = begin_tick()
            if first:
                self.begins.append(unchanged)
            else:
                self.begins[-1] = self.begins[-1] and unchanged
            return unchanged

        def counted_resolve(vip):
            self.resolves += 1
            return resolve(vip)

        resolver.begin_tick = counted_begin
        resolver.resolve = counted_resolve

    def false_ticks(self):
        return sum(1 for unchanged in self.begins if not unchanged)

    def reset(self):
        self.begins = []
        self.resolves = 0


def build(
    n_hosts=64, n_vips=256, segment_size=16, resolver_class=None, engine_class=FlowEngine, **kwargs
):
    with mock.patch("repro.apps.scalecluster.FlowEngine", engine_class):
        scenario = ScaleClusterScenario(
            seed=5,
            n_hosts=n_hosts,
            n_vips=n_vips,
            segment_size=segment_size,
            flow_users=10_007,
            **kwargs
        )
    for cell in scenario.cells:
        if resolver_class is not None:
            cell.resolver = resolver_class(cell.lan)
            for pool in cell.pools:
                pool.resolver = cell.resolver
    recorder = Recorder([cell.resolver for cell in scenario.cells])
    scenario.start()
    assert scenario.settle()
    return scenario, recorder


def flow_snapshot(sim, engine):
    return {
        "fingerprint": json.dumps(engine.fingerprint(), sort_keys=True),
        "flow_records": [
            (record.time, record.source, record.event, record.details)
            for record in sim.trace.records
            if record.category == "flow"
        ],
        "metrics": sim.metrics.totals(),
    }


# ----------------------------------------------------------------------
# (a) the twin: kept state vs. a resolver that forgets


def fault_script(scenario):
    """Every input a DirectResolver reads, written at least once."""
    lan = scenario.lan
    bursty = GilbertElliott(0.05, 0.25, loss_bad=0.5)
    frozen = GilbertElliott(0.0, 0.0, loss_good=0.0, loss_bad=0.4)
    held = {}

    def binder_nic():
        # A live binder of the first cell and the lowest address it binds.
        manager = next(m for m in scenario.managers if m.alive and m.bound)
        return manager.nic, min(manager.bound)

    def unbind_through_the_nic():
        nic, vip = held["binding"] = binder_nic()
        nic.unbind_ip(vip)

    return [
        ("settled", lambda: None),
        ("kill", lambda: scenario.kill(9)),
        ("rebound", lambda: scenario.sim.run_for(1.0)),
        ("set_slowdown", lambda: scenario.hosts[20].set_slowdown(3.0)),
        ("slowdown cleared", lambda: scenario.hosts[20].set_slowdown(1.0)),
        ("bursty channel", lambda: lan.add_link_model(bursty)),
        ("frozen channel", lambda: lan.add_link_model(frozen)),
        ("a frozen chain's bad flag", lambda: setattr(frozen, "bad", True)),
        ("channels removed",
         lambda: (lan.remove_link_model(frozen), lan.remove_link_model(bursty))),
        ("lan.loss", lambda: setattr(lan, "loss", 0.1)),
        ("lan.loss cleared", lambda: setattr(lan, "loss", 0.0)),
        ("revive", lambda: scenario.revive(9)),
        ("rebalanced", lambda: scenario.sim.run_for(2.7)),
        ("unbound through the NIC", unbind_through_the_nic),
        ("bound again", lambda: held["binding"][0].bind_ip(held["binding"][1])),
        ("binder's NIC down", lambda: held["binding"][0].set_up(False)),
        ("binder's NIC reset", lambda: held["binding"][0].reset()),
    ]


def run_fault_script(resolver_class, engine_class=FlowEngine):
    scenario, recorder = build(
        resolver_class=resolver_class,
        engine_class=engine_class,
        trace_enabled=True,
        metrics_enabled=True,
    )
    steps = []
    for label, write in fault_script(scenario):
        write()
        scenario.sim.run_for(0.3)
        steps.append((label, flow_snapshot(scenario.sim, scenario.flow_engine)))
    return {
        "steps": steps,
        "ticks": scenario.flow_engine.ticks,
        "resolves": recorder.resolves,
        "begins": recorder.begins,
        "reasons": sorted(scenario.flow_engine.lost_by_reason),
    }


@pytest.fixture(scope="module")
def reference_run():
    yield from shared(run_fault_script(Forgetful))


@pytest.fixture(scope="module")
def oracle_run():
    yield from shared(run_fault_script(ComparedDirect))


def test_forgetful_reference_resolves_every_vip_every_tick(reference_run):
    assert reference_run["resolves"] == 256 * reference_run["ticks"]
    metrics = reference_run["steps"][-1][1]["metrics"]
    assert 0 < metrics["flow.requests_lost"] < metrics["flow.requests_offered"]
    assert len(reference_run["steps"][-1][1]["flow_records"]) > 100
    assert reference_run["reasons"] == ["degraded", "no_owner"]


@pytest.mark.parametrize("resolver_class", [DirectResolver, Forgetful, ComparedDirect])
def test_kept_state_is_bit_identical_to_resolving_every_tick(
    reference_run, oracle_run, resolver_class, engine_class
):
    run = run_fault_script(resolver_class, engine_class)
    assert run["ticks"] == reference_run["ticks"]
    for (label, got), (_label, want) in zip(run["steps"], reference_run["steps"]):
        for key in ("fingerprint", "flow_records", "metrics"):
            assert got[key] == want[key], (label, key)
    if resolver_class is DirectResolver:
        assert run["resolves"] * 10 < reference_run["resolves"]
        assert covers(run["begins"], oracle_run["begins"])


# ----------------------------------------------------------------------
# (a') the ARP-view twin: the same, through a client host's ARP cache

ARP_VIPS = ["10.0.0.{}".format(100 + index) for index in range(6)]
#: Short, so entries age out (and are re-learnt) all through the script.
ARP_LIFETIME = 2.0


class ArpWorld:
    """Four servers binding six VIPs by hand, a bystander, a flow client."""

    def __init__(self, resolver_class, engine_class=FlowEngine, require=None):
        self.sim = Simulation(seed=11, trace_enabled=True, metrics_enabled=True)
        self.lan = Lan(self.sim, "lan", "10.0.0.0/24")
        self.faults = FaultInjector(self.sim)
        self.servers = []
        for index in range(4):
            host = Host(self.sim, "s{}".format(index))
            host.add_nic(self.lan, "10.0.0.{}".format(10 + index))
            self.servers.append(host)
        for index, vip in enumerate(ARP_VIPS):
            self.nic(index % 4).bind_ip(vip)
        # A bystander on the segment: it serves nothing until it binds.
        self.printer = Host(self.sim, "printer")
        self.printer.add_nic(self.lan, "10.0.0.50")
        self.client = Host(self.sim, "client", arp_cache_lifetime=ARP_LIFETIME)
        self.client.add_nic(self.lan, "10.0.0.200")
        self.resolver = resolver_class(self.lan, self.client)
        self.recorder = Recorder([self.resolver])
        self.engine = engine_class(self.sim, resolver=self.resolver, name="twin")
        for index, vip in enumerate(ARP_VIPS):
            self.engine.add_pool(
                FlowPool("pool-{}".format(index), vip, 1000 + index, require=require)
            )
        self.engine.start()

    def nic(self, index):
        return self.servers[index].nics[0]

    def move(self, vip, src, dst, announce=True):
        src.unbind_ip(vip)
        dst.bind_ip(vip)
        if announce:
            dst.host.arp.announce(dst, vip)

    def snapshot(self):
        cache = self.client.arp.cache
        return {
            "fingerprint": json.dumps(self.engine.fingerprint(), sort_keys=True),
            "flow_records": [
                (record.time, record.source, record.event, record.details)
                for record in self.sim.trace.records
                if record.category == "flow"
            ],
            "metrics": self.sim.metrics.totals(),
            # Contents, not just the live view: stored entries with their
            # refresh times, and how many stores it took to get there.
            "arp_cache": (
                {str(ip): cache.peek(ip) for ip in ARP_VIPS},
                cache.snapshot(),
                cache.updates,
            ),
        }


def arp_view_script(world):
    """Every input an ArpViewResolver reads, at every site that writes it."""
    lan, faults, client = world.lan, world.faults, world.client
    frozen = GilbertElliott(0.0, 0.0, loss_good=0.0, loss_bad=0.4)
    late = []
    held = {}  # the open partition handle and blocked pairs

    def attach_and_rebind():
        late.append(world.servers[0].add_nic(lan, "10.0.0.70"))
        world.move(ARP_VIPS[1], world.nic(1), late[0])

    def recover_and_rebind():
        faults.recover_host(world.servers[3])
        world.nic(3).bind_ip(ARP_VIPS[3])
        world.servers[3].arp.announce(world.nic(3), ARP_VIPS[3])

    return [
        ("cold start", lambda: None),
        ("silent rebind", lambda: world.move(ARP_VIPS[0], world.nic(0), world.nic(1), False)),
        ("spoofed announcement", lambda: world.nic(1).host.arp.announce(world.nic(1), ARP_VIPS[0])),
        ("nic_down", lambda: faults.nic_down(world.nic(2))),
        ("nic_up", lambda: faults.nic_up(world.nic(2))),
        ("crash", lambda: faults.crash_host(world.servers[3])),
        ("recover", recover_and_rebind),
        ("set_slowdown", lambda: world.servers[1].set_slowdown(3.0)),
        ("slowdown cleared", lambda: world.servers[1].set_slowdown(1.0)),
        ("partition", lambda: held.update(cut=faults.partition(lan, [[client]]))),
        ("heal", lambda: held.pop("cut").undo()),
        ("block_direction",
         lambda: held.update(pairs=lan.block_direction(world.servers[2], client))),
        ("unblock", lambda: lan.unblock(held.pop("pairs"))),
        ("link model set", lambda: lan.add_link_model(frozen)),
        ("link model state flipped", lambda: setattr(frozen, "bad", True)),
        ("link model removed", lambda: lan.remove_link_model(frozen)),
        ("lan.loss", lambda: setattr(lan, "loss", 0.1)),
        ("lan.loss cleared", lambda: setattr(lan, "loss", 0.0)),
        ("client clock skewed", lambda: client.set_clock_skew(1.5)),
        ("client clock restored", lambda: client.set_clock_skew(0.0)),
        ("arp.reset()", client.arp.reset),
        ("NIC attached mid-run", attach_and_rebind),
        ("the NIC detached", lambda: lan.detach(late[0])),
        ("a cache entry dropped", lambda: client.arp.cache.drop(ARP_VIPS[4])),
        ("bystander NIC down", lambda: world.printer.nics[0].set_up(False)),
        ("bystander NIC reset", world.printer.nics[0].reset),
        ("spoof at the bystander",
         lambda: world.printer.arp.announce(world.printer.nics[0], ARP_VIPS[2])),
        ("the bystander binds it", lambda: world.printer.nics[0].bind_ip(ARP_VIPS[2])),
        ("the owner's announcement", lambda: world.nic(2).host.arp.announce(world.nic(2), ARP_VIPS[2])),
        ("an owner crashed", lambda: faults.crash_host(world.servers[3])),
        ("entries ageing out, one with no owner", lambda: world.sim.run_for(2 * ARP_LIFETIME)),
    ]


def run_arp_view_script(resolver_class, engine_class=FlowEngine):
    world = ArpWorld(resolver_class, engine_class)
    steps = []
    for label, write in arp_view_script(world):
        write()
        world.sim.run_for(0.35)
        steps.append((label, world.snapshot()))
    return {
        "steps": steps,
        "ticks": world.engine.ticks,
        "resolves": world.recorder.resolves,
        "begins": world.recorder.begins,
        "reasons": sorted(world.engine.lost_by_reason),
    }


@pytest.fixture(scope="module")
def arp_reference_run():
    yield from shared(run_arp_view_script(ForgetfulArpView))


@pytest.fixture(scope="module")
def arp_oracle_run():
    yield from shared(run_arp_view_script(ComparedArpView))


def test_forgetful_arp_view_resolves_every_vip_every_tick(arp_reference_run):
    assert arp_reference_run["resolves"] == len(ARP_VIPS) * arp_reference_run["ticks"]
    # The script reached every way the ARP view can lose a request.
    assert arp_reference_run["reasons"] == [
        "dead_host", "degraded", "no_owner", "partitioned", "stale_arp",
    ]
    # Entries aged out and were re-learnt: more stores than addresses.
    final = arp_reference_run["steps"][-1][1]
    assert final["arp_cache"][2] > 3 * len(ARP_VIPS)


@pytest.mark.parametrize("resolver_class", [ArpViewResolver, ForgetfulArpView, ComparedArpView])
def test_kept_arp_view_is_bit_identical_to_resolving_every_tick(
    arp_reference_run, arp_oracle_run, resolver_class, engine_class
):
    run = run_arp_view_script(resolver_class, engine_class)
    assert run["ticks"] == arp_reference_run["ticks"]
    for (label, got), (_label, want) in zip(run["steps"], arp_reference_run["steps"]):
        for key in ("fingerprint", "flow_records", "metrics", "arp_cache"):
            assert got[key] == want[key], (label, key)
    if resolver_class is ArpViewResolver:
        assert run["resolves"] * 2 < arp_reference_run["resolves"]
        assert covers(run["begins"], arp_oracle_run["begins"])


def test_gated_engine_resolves_every_tick_and_stays_quiet(engine_class):
    # A require gate (RouterClusterScenario) runs every tick on the kept
    # owners, so the engine resolves nothing on quiet ticks; the
    # reference still resolves every VIP every tick, and its warm
    # lookups write nothing, so the view stays quiet for it too.
    world = ArpWorld(ArpViewResolver, engine_class, require=lambda host: True)
    world.client.arp.cache.lifetime = 3600.0
    world.sim.run_for(0.5)
    world.recorder.reset()
    world.sim.run_for(50.0)
    assert len(world.recorder.begins) == 1000
    assert world.recorder.false_ticks() == 0
    per_tick = 0 if engine_class is FlowEngine else len(ARP_VIPS)
    assert world.recorder.resolves == 1000 * per_tick
    assert world.engine.totals()["lost"] == 0


# ----------------------------------------------------------------------
# (b) the budget: quiet ticks resolve nothing, a fault costs a few ticks


def check_budget(scenario, recorder, cell_pools):
    engine = scenario.flow_engine
    # Host 9's cell: the one whose resolver a kill or revive moves.
    faulted = next(cell for cell in scenario.cells if cell.slots.start <= 9 < cell.slots.stop)
    assert len(faulted.pools) == cell_pools < len(engine.pools)

    def ticks_during(seconds):
        recorder.reset()
        before = engine.ticks
        scenario.sim.run_for(seconds)
        # Kept factors or not, every tick is a tick and begins one.
        assert engine.ticks - before == len(recorder.begins)
        return len(recorder.begins)

    assert ticks_during(10.02) >= 200
    assert recorder.false_ticks() == 0
    assert recorder.resolves == 0
    for fault in (scenario.kill, scenario.revive):
        fault(9)
        assert ticks_during(5.0) >= 99
        assert scenario.converged()
        assert 1 <= recorder.false_ticks() <= 6
        # A resolving tick re-resolves the faulted cell's VIPs alone.
        assert recorder.resolves == recorder.false_ticks() * cell_pools


def test_quiet_ticks_resolve_nothing_and_a_fault_costs_a_few_ticks():
    check_budget(*build(), cell_pools=64)


@pytest.mark.scale
def test_quiet_ticks_resolve_nothing_at_n256(monkeypatch):
    scenario, recorder = build(n_hosts=256, n_vips=2048, segment_size=32)
    parses = []
    parse = IPAddress._parse
    with monkeypatch.context() as patch:
        patch.setattr(
            IPAddress, "_parse", staticmethod(lambda text: parses.append(text) or parse(text))
        )
        scenario.sim.run_for(10.0)
    assert parses == []
    check_budget(scenario, recorder, cell_pools=256)


# ----------------------------------------------------------------------
# (c) each input alone is seen exactly once


def test_each_input_flips_begin_tick_once():
    scenario = ScaleClusterScenario(seed=3, n_hosts=16, n_vips=64, segment_size=8)
    scenario.start()
    assert scenario.settle()
    lan = scenario.lan
    resolver = DirectResolver(lan)
    assert resolver.begin_tick() is False  # nothing read yet
    assert resolver.begin_tick() is True

    def seen_once(what):
        assert resolver.begin_tick() is False, what
        assert resolver.begin_tick() is True, what

    victim = scenario.managers[4]
    vip = min(victim.bound)
    assert resolver.resolve(vip) == (1.0, None, victim.host)

    scenario.kill(4)
    seen_once("owner crash")
    assert resolver.resolve(vip) == (0.0, "no_owner", None)

    assert scenario.settle()
    seen_once("apply_view rebinding")
    heir = resolver.resolve(vip)[2]
    assert heir is not None and heir is not victim.host

    heir.set_slowdown(4.0)
    seen_once("set_slowdown")
    assert resolver.resolve(vip) == (0.25, "degraded", heir)
    heir.set_slowdown(1.0)
    seen_once("slowdown cleared")

    frozen = GilbertElliott(0.0, 0.0, loss_good=0.0, loss_bad=0.5)
    lan.add_link_model(frozen)
    seen_once("add_link_model")  # a new model, even one that loses nothing
    assert resolver.resolve(vip) == (1.0, None, heir)
    frozen.bad = True
    seen_once("a frozen chain's bad flag")
    assert resolver.resolve(vip) == (0.25, "degraded", heir)
    lan.remove_link_model(frozen)
    seen_once("link model removed")

    lan.loss = 0.5
    seen_once("lan.loss")
    assert resolver.resolve(vip) == (0.25, "degraded", heir)
    lan.loss = 0.0
    seen_once("lan.loss cleared")

    nic = heir.nic_on(lan)
    nic.unbind_ip(vip)
    seen_once("unbound through the NIC")
    assert resolver.resolve(vip) == (0.0, "no_owner", None)
    nic.bind_ip(vip)
    seen_once("bound again")
    nic.set_up(False)
    seen_once("the owner's NIC down")
    assert resolver.resolve(vip) == (0.0, "no_owner", None)
    nic.set_up(True)
    seen_once("and up")

    scenario.revive(4)
    seen_once("a revived host's new manager")
    assert scenario.managers[4] is not victim
    assert scenario.settle()
    seen_once("the heirs releasing its share")
    assert resolver.resolve(vip) == (1.0, None, victim.host)


def test_each_arp_view_input_flips_begin_tick_once():
    world = ArpWorld(ArpViewResolver)
    world.engine.stop_flow()  # the test is the engine: it begins the ticks
    sim, lan, client, resolver = world.sim, world.lan, world.client, world.resolver
    client.arp.cache.lifetime = 60.0
    vip = ARP_VIPS[0]
    owner = world.servers[0]

    def tick():
        # What FlowEngine does per resolver: resolve its VIPs unless "unchanged".
        unchanged = resolver.begin_tick()
        if not unchanged:
            for address in ARP_VIPS:
                resolver.resolve(address)
        return unchanged

    def seen_once(what):
        assert tick() is False, what
        assert tick() is True, what

    def seen_twice(what):
        # The resolves of the first tick wrote the cache themselves.
        assert tick() is False, what
        assert tick() is False, what
        assert tick() is True, what

    seen_twice("nothing read yet, then the cold lookups' stores")
    assert resolver.resolve(vip) == (1.0, None, owner)
    assert tick() is True

    world.move(vip, world.nic(0), world.nic(1), announce=False)
    seen_once("silent rebind")
    assert resolver.resolve(vip) == (0.0, "stale_arp", None)
    world.servers[1].arp.announce(world.nic(1), vip)
    sim.run_for(0.01)
    seen_once("spoofed announcement")
    assert resolver.resolve(vip) == (1.0, None, world.servers[1])
    world.move(vip, world.nic(1), world.nic(0))
    sim.run_for(0.01)
    seen_once("moved back, announced")

    world.nic(0).set_up(False)
    seen_once("nic down")
    assert resolver.resolve(vip) == (0.0, "dead_host", None)
    world.nic(0).set_up(True)
    seen_once("nic up")

    owner.set_slowdown(4.0)
    seen_once("set_slowdown")
    assert resolver.resolve(vip) == (0.25, "degraded", owner)
    owner.set_slowdown(1.0)
    seen_once("slowdown cleared")

    cut = lan.partition([[client]])
    seen_once("partition")
    assert resolver.resolve(vip) == (0.0, "partitioned", None)
    lan.heal(cut)
    seen_once("heal")
    pairs = lan.block_direction(owner, client)
    seen_once("block_direction")
    assert resolver.resolve(vip) == (0.0, "partitioned", None)
    lan.unblock(pairs)
    seen_once("unblock")

    frozen = GilbertElliott(0.0, 0.0, loss_good=0.0, loss_bad=0.5)
    lan.add_link_model(frozen)
    seen_once("add_link_model")
    frozen.bad = True
    seen_once("a frozen chain's bad flag")
    assert resolver.resolve(vip) == (0.25, "degraded", owner)
    lan.remove_link_model(frozen)
    seen_once("link model removed")
    lan.loss = 0.5
    seen_once("lan.loss")
    lan.loss = 0.0
    seen_once("lan.loss cleared")

    world.printer.arp.announce(world.printer.nics[0], vip)
    sim.run_for(0.01)
    seen_once("spoof at a non-server NIC")
    assert resolver.resolve(vip) == (0.0, "stale_arp", None)
    world.printer.nics[0].bind_ip(vip)
    seen_once("a non-server NIC's bound set")
    assert resolver.resolve(vip) == (1.0, None, world.printer)
    world.printer.nics[0].unbind_ip(vip)
    seen_once("and back")
    owner.arp.announce(world.nic(0), vip)
    sim.run_for(0.01)
    seen_once("the owner's announcement")

    extra = world.servers[2].add_nic(lan, "10.0.0.72")
    seen_once("a NIC attached")
    lan.detach(extra)
    world.servers[2].add_nic(lan, "10.0.0.72")
    seen_once("a NIC swapped for one that reads the same")

    faults = world.faults
    faults.crash_host(world.servers[3])
    seen_once("crash")
    assert resolver.resolve(ARP_VIPS[3]) == (0.0, "dead_host", None)
    faults.recover_host(world.servers[3])
    seen_once("recover: alive again, virtual addresses gone")
    assert resolver.resolve(ARP_VIPS[3]) == (0.0, "no_owner", None)
    world.nic(3).bind_ip(ARP_VIPS[3])
    seen_once("rebound")

    # Time alone: no write anywhere, the entries just get old. The
    # boundary is lookup's — still served at exactly ``lifetime``.
    stored = client.arp.cache.peek(ARP_VIPS[5]).updated_at
    sim.run(until=stored + 60.0)
    assert tick() is True
    sim.run_for(0.05)
    seen_twice("the oldest entry aged out; the lookups re-learnt it")
    sim.run_for(1.0)
    assert tick() is True
    client.set_clock_skew(60.0)
    seen_twice("clock skew ages every entry at once")
    client.set_clock_skew(0.0)
    assert tick() is True  # entries from the future are simply young

    client.arp.reset()
    seen_twice("arp.reset(): a new cache object, then cold stores")
    sim.run_for(10.0)
    assert tick() is True

    client.arp.cache.drop(vip)
    seen_twice("a cache entry dropped, then its cold store")
    bystander = world.printer.nics[0]
    bystander.set_up(False)
    seen_once("a bystander's NIC down")
    bystander.reset()
    seen_once("its reset: up again, nothing to unbind")
    for server in world.servers:
        faults.crash_host(server)
    seen_once("every owner crashed")
    sim.run_for(60.0)
    seen_twice("entries with no owner aged out: deleted, nothing stored")


# ----------------------------------------------------------------------
# (d) what the engine does with the answer


class ScriptedResolver:
    """Test double: per-VIP answers, scripted ``begin_tick`` returns."""

    def __init__(self, answers, unchanged=()):
        self.answers = {IPAddress(vip): answer for vip, answer in answers.items()}
        self.unchanged = list(unchanged)
        self.begins = 0
        self.resolves = 0

    def begin_tick(self):
        self.begins += 1
        return self.unchanged.pop(0) if self.unchanged else True

    def resolve(self, vip):
        self.resolves += 1
        return self.answers[vip]


def test_gated_pool_is_resolved_every_tick(engine_class):
    # The gate runs every tick on the kept owner; only the reference
    # resolves a gated pool every tick.
    sim = Simulation(seed=1)
    owner = object()
    resolver = ScriptedResolver({"10.0.0.1": (1.0, None, owner)})
    gate = {"open": True}
    engine = engine_class(sim, resolver=resolver)
    engine.add_pool(FlowPool("p", "10.0.0.1", users=200, require=lambda host: gate["open"]))
    engine.start()
    sim.run(until=0.051)
    assert engine.totals()["lost"] == 0
    gate["open"] = False
    sim.run(until=0.101)  # the very next tick, though the resolver says "unchanged"
    assert engine.totals()["lost_by_reason"] == {"no_route": 10}
    gate["open"] = True
    sim.run(until=0.151)
    assert engine.totals()["lost"] == 10 and engine.totals()["served"] == 20
    assert (resolver.begins, resolver.resolves) == (3, 1 if engine_class is FlowEngine else 3)


def test_one_changed_resolver_re_resolves_everything(engine_class):
    sim = Simulation(seed=1)
    # The changing resolver comes first: the other must still begin its
    # tick (no short-circuit). The engine asks only the changed one
    # again; the reference re-resolves everything.
    moving = ScriptedResolver({"10.0.0.1": (1.0, None, None)}, unchanged=[False, True, False, True])
    steady = ScriptedResolver({"10.0.0.2": (1.0, None, None)})
    engine = engine_class(sim, resolver=steady)
    engine.add_pool(FlowPool("a", "10.0.0.1", users=100, resolver=moving))
    engine.add_pool(FlowPool("b", "10.0.0.2", users=100))
    engine.start()
    seen = []
    for tick in range(1, 5):
        sim.run(until=0.05 * tick + 0.001)
        seen.append((moving.begins, steady.begins, moving.resolves, steady.resolves))
    if engine_class is FlowEngine:
        assert seen == [(1, 1, 1, 1), (2, 2, 1, 1), (3, 3, 2, 1), (4, 4, 2, 1)]
    else:
        assert seen == [(1, 1, 1, 1), (2, 2, 1, 1), (3, 3, 2, 2), (4, 4, 2, 2)]
    # A double whose begin_tick returns nothing promises nothing: it
    # re-resolves its own VIPs every tick.
    moving.unchanged = [None, None]
    sim.run(until=0.301)
    assert (moving.resolves, steady.resolves) == (4, 1 if engine_class is FlowEngine else 4)


# ----------------------------------------------------------------------
# (e) accounting over lossy pools only


def test_loss_record_sums_every_pool_of_the_vip_in_first_seen_order(engine_class):
    sim = Simulation(seed=1, metrics_enabled=True)
    owner = object()
    resolver = ScriptedResolver(
        {
            "10.0.0.1": (1.0, None, owner),
            "10.0.0.2": (0.0, "stale_arp", None),
            "10.0.0.3": (0.5, None, owner),
            "10.0.0.4": (0.0, "no_owner", None),
        }
    )
    engine = engine_class(sim, resolver=resolver)
    engine.add_pool(FlowPool("served", "10.0.0.1", users=60))
    engine.add_pool(FlowPool("stale", "10.0.0.2", users=40))
    engine.add_pool(FlowPool("gated", "10.0.0.1", users=100, require=lambda host: False))
    engine.add_pool(FlowPool("half", "10.0.0.3", users=80))
    engine.add_pool(FlowPool("dark", "10.0.0.4", users=20))
    engine.add_pool(FlowPool("idle", "10.0.0.4", users=0))
    engine.start()
    sim.run(until=0.051)
    # Reasons in the order their first lossy pool was attached, not sorted.
    assert list(engine.lost_by_reason.items()) == [
        ("stale_arp", 2), ("no_route", 5), ("degraded", 2), ("no_owner", 1),
    ]
    lost_counters = {
        dict(labels)["reason"]: instrument.value
        for name, _node, labels, instrument in sim.metrics.collect()
        if name == "flow.requests_lost"
    }
    assert lost_counters == dict(engine.lost_by_reason)
    records = [
        record.details for record in sim.trace.records
        if record.category == "flow" and record.event == "loss"
    ]
    # One record per lossy VIP in first-pool order; 10.0.0.1's covers
    # the served pool (3 of 3) as well as the gated one (0 of 5).
    assert records == [
        {"vip": "10.0.0.1", "offered": 8, "served": 3, "lost": 5, "reason": "no_route"},
        {"vip": "10.0.0.2", "offered": 2, "served": 0, "lost": 2, "reason": "stale_arp"},
        {"vip": "10.0.0.3", "offered": 4, "served": 2, "lost": 2, "reason": "degraded"},
        {"vip": "10.0.0.4", "offered": 1, "served": 0, "lost": 1, "reason": "no_owner"},
    ]
    assert engine.totals()["offered"] == 15 and engine.totals()["served"] == 5
    engine.fingerprint()
    assert [(p.name, p.lost_by_reason) for p in engine.pools if p.lost] == [
        ("stale", {"stale_arp": 2}),
        ("gated", {"no_route": 5}),
        ("half", {"degraded": 2}),
        ("dark", {"no_owner": 1}),
    ]

"""Loss-attribution tests for the ARP-view and direct resolvers."""

import pytest

from repro.flow import ArpViewResolver, degradation_factor
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.linkfault import GilbertElliott
from repro.sim.simulation import Simulation


def build(n_servers=2):
    sim = Simulation(seed=5)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    servers = []
    for index in range(n_servers):
        host = Host(sim, "s{}".format(index))
        host.add_nic(lan, "10.0.0.{}".format(10 + index))
        servers.append(host)
    client = Host(sim, "client")
    client.add_nic(lan, "10.0.0.200")
    resolver = ArpViewResolver(lan, client)
    return sim, lan, servers, client, resolver


def test_client_needs_a_nic_on_the_lan():
    sim = Simulation(seed=5)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    other = Lan(sim, "other", "10.1.0.0/24")
    client = Host(sim, "client")
    client.add_nic(other, "10.1.0.2")
    with pytest.raises(ValueError):
        ArpViewResolver(lan, client)


def test_unbound_vip_is_no_owner():
    sim, lan, servers, client, resolver = build()
    resolver.begin_tick()
    factor, reason, owner = resolver.resolve("10.0.0.100")
    assert (factor, reason, owner) == (0.0, "no_owner", None)


def test_cold_cache_resolves_and_stores_owner():
    sim, lan, servers, client, resolver = build()
    servers[0].nics[0].bind_ip("10.0.0.100")
    resolver.begin_tick()
    factor, reason, owner = resolver.resolve("10.0.0.100")
    assert (factor, reason, owner) == (1.0, None, servers[0])
    assert client.arp.cache.lookup("10.0.0.100") == servers[0].nics[0].mac


def test_stale_arp_after_silent_rebind():
    # The VIP moves but no announcement reaches the client: the warm
    # cache keeps pointing at the old interface — the paper's stale-ARP
    # blackhole, labeled stale_arp because a live owner exists elsewhere.
    sim, lan, servers, client, resolver = build()
    servers[0].nics[0].bind_ip("10.0.0.100")
    resolver.begin_tick()
    resolver.resolve("10.0.0.100")
    servers[0].nics[0].unbind_ip("10.0.0.100")
    servers[1].nics[0].bind_ip("10.0.0.100")
    resolver.begin_tick()
    factor, reason, owner = resolver.resolve("10.0.0.100")
    assert (factor, reason) == (0.0, "stale_arp")


def test_announcement_repairs_the_stale_binding():
    sim, lan, servers, client, resolver = build()
    servers[0].nics[0].bind_ip("10.0.0.100")
    resolver.begin_tick()
    resolver.resolve("10.0.0.100")
    servers[0].nics[0].unbind_ip("10.0.0.100")
    servers[1].nics[0].bind_ip("10.0.0.100")
    # The new owner broadcasts the spoofed reply (§5.1) and the client's
    # cache is repointed by the normal receive path.
    servers[1].arp.announce(servers[1].nics[0], "10.0.0.100")
    sim.run_until_idle()
    resolver.begin_tick()
    factor, reason, owner = resolver.resolve("10.0.0.100")
    assert (factor, reason, owner) == (1.0, None, servers[1])


def test_dead_host_when_no_live_owner_anywhere():
    sim, lan, servers, client, resolver = build()
    servers[0].nics[0].bind_ip("10.0.0.100")
    resolver.begin_tick()
    resolver.resolve("10.0.0.100")
    servers[0].crash()
    resolver.begin_tick()
    factor, reason, owner = resolver.resolve("10.0.0.100")
    assert (factor, reason) == (0.0, "dead_host")


def test_partitioned_client_cannot_reach_owner():
    sim, lan, servers, client, resolver = build()
    servers[0].nics[0].bind_ip("10.0.0.100")
    resolver.begin_tick()
    resolver.resolve("10.0.0.100")
    FaultInjector(sim).partition(lan, [[servers[0]], [servers[1], client]])
    resolver.begin_tick()
    factor, reason, owner = resolver.resolve("10.0.0.100")
    assert (factor, reason) == (0.0, "partitioned")


def test_slow_host_serves_at_reduced_goodput():
    sim, lan, servers, client, resolver = build()
    servers[0].nics[0].bind_ip("10.0.0.100")
    servers[0].time_scale = 4.0
    resolver.begin_tick()
    factor, reason, owner = resolver.resolve("10.0.0.100")
    assert reason == "degraded"
    assert factor == pytest.approx(0.25)
    assert owner is servers[0]


def test_burst_loss_scales_by_expected_loss_squared():
    sim, lan, servers, client, resolver = build()
    servers[0].nics[0].bind_ip("10.0.0.100")
    model = GilbertElliott(
        p_good_to_bad=0.1, p_bad_to_good=0.3, loss_good=0.0, loss_bad=0.8
    )
    FaultInjector(sim).burst_loss_on(lan, model)
    expected = model.expected_loss()
    assert expected == pytest.approx(0.25 * 0.8)
    resolver.begin_tick()
    factor, reason, owner = resolver.resolve("10.0.0.100")
    assert reason == "degraded"
    assert factor == pytest.approx((1.0 - expected) ** 2)


def test_expected_loss_degenerate_chain_uses_current_state():
    frozen = GilbertElliott(p_good_to_bad=0.0, p_bad_to_good=0.0, loss_bad=0.9)
    assert frozen.expected_loss() == 0.0
    frozen.bad = True
    assert frozen.expected_loss() == 0.9


def test_degradation_factor_clean_path_is_unity():
    sim, lan, servers, client, resolver = build()
    assert degradation_factor(lan, servers[0]) == 1.0
    assert degradation_factor(None, None) == 1.0


def test_resolvers_never_draw_rng():
    # Attaching a flow plane must not perturb replay: resolution of
    # every reason path consumes zero draws from the simulation RNG.
    sim, lan, servers, client, resolver = build()
    servers[0].nics[0].bind_ip("10.0.0.100")
    streams_before = len(sim.rng._streams) if hasattr(sim.rng, "_streams") else None
    resolver.begin_tick()
    resolver.resolve("10.0.0.100")
    resolver.resolve("10.0.0.101")
    servers[0].crash()
    resolver.begin_tick()
    resolver.resolve("10.0.0.100")
    if streams_before is not None:
        assert len(sim.rng._streams) == streams_before

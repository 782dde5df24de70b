"""Unit tests for IP routers: forwarding, route tables, LPM."""

import pytest

from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.packet import IP_ETHERTYPE, IpPacket
from repro.net.router import Router, StaticRoute
from repro.sim.simulation import Simulation


def build_two_lans():
    """client --- lan_a --- router --- lan_b --- server"""
    sim = Simulation(seed=4)
    lan_a = Lan(sim, "a", "10.0.0.0/24")
    lan_b = Lan(sim, "b", "10.1.0.0/24")
    router = Router(sim, "r")
    router.add_nic(lan_a, "10.0.0.1")
    router.add_nic(lan_b, "10.1.0.1")
    client = Host(sim, "client")
    client.add_nic(lan_a, "10.0.0.10")
    client.set_default_gateway("10.0.0.1")
    server = Host(sim, "server")
    server.add_nic(lan_b, "10.1.0.10")
    server.set_default_gateway("10.1.0.1")
    return sim, router, client, server


def test_forwards_between_connected_subnets():
    sim, router, client, server = build_two_lans()
    seen = []
    server.open_udp(100, lambda p, s, d: seen.append((p, str(s[0]))))
    client.send_udp("x", "10.1.0.10", 100, src_port=1)
    sim.run_until_idle()
    assert seen == [("x", "10.0.0.10")]
    assert router.packets_forwarded == 1


def test_bidirectional_path():
    sim, router, client, server = build_two_lans()
    replies = []
    client.open_udp(55, lambda p, s, d: replies.append(p))
    server.open_udp(100, lambda p, s, d: server.send_udp("pong", s[0], s[1], src_port=100))
    client.send_udp("ping", "10.1.0.10", 100, src_port=55)
    sim.run_until_idle()
    assert replies == ["pong"]


def test_ttl_decrements_on_forward():
    sim, router, client, server = build_two_lans()
    forwarded = []
    original_forward = router.forward_packet

    def spy_forward(packet):
        forwarded.append(packet.ttl)
        original_forward(packet)

    router.forward_packet = spy_forward
    arrived = []
    server_nic = server.nics[0]
    original_deliver = server_nic.deliver

    def spy_deliver(frame):
        if frame.ethertype == IP_ETHERTYPE:
            arrived.append(frame.payload.ttl)
        original_deliver(frame)

    server_nic.deliver = spy_deliver
    received = []
    server.open_udp(100, lambda p, s, d: received.append(p))
    client.send_udp("x", "10.1.0.10", 100, src_port=1)
    sim.run_until_idle()
    assert received == ["x"]
    assert forwarded == [IpPacket.DEFAULT_TTL]
    assert arrived == [IpPacket.DEFAULT_TTL - 1]


def test_static_route_to_remote_subnet():
    # client -- lan_a -- r1 -- lan_m -- r2 -- lan_b -- server
    sim = Simulation(seed=5)
    lan_a = Lan(sim, "a", "10.0.0.0/24")
    lan_m = Lan(sim, "m", "10.5.0.0/24")
    lan_b = Lan(sim, "b", "10.1.0.0/24")
    r1 = Router(sim, "r1")
    r1.add_nic(lan_a, "10.0.0.1")
    r1.add_nic(lan_m, "10.5.0.1")
    r1.add_route("10.1.0.0/24", "10.5.0.2")
    r2 = Router(sim, "r2")
    r2.add_nic(lan_m, "10.5.0.2")
    r2.add_nic(lan_b, "10.1.0.1")
    r2.add_route("10.0.0.0/24", "10.5.0.1")
    client = Host(sim, "client")
    client.add_nic(lan_a, "10.0.0.10")
    client.set_default_gateway("10.0.0.1")
    server = Host(sim, "server")
    server.add_nic(lan_b, "10.1.0.10")
    server.set_default_gateway("10.1.0.1")
    seen = []
    server.open_udp(100, lambda p, s, d: seen.append(p))
    client.send_udp("x", "10.1.0.10", 100, src_port=1)
    sim.run_until_idle()
    assert seen == ["x"]


def test_longest_prefix_match_wins():
    sim, router, client, server = build_two_lans()
    router.add_route("0.0.0.0/0", "10.0.0.99")
    router.add_route("192.168.1.0/24", "10.1.0.10")
    nic, next_hop = router.lookup_route("192.168.1.5")
    assert str(next_hop) == "10.1.0.10"
    nic, next_hop = router.lookup_route("8.8.8.8")
    assert str(next_hop) == "10.0.0.99"


def test_connected_subnet_beats_shorter_route():
    sim, router, client, server = build_two_lans()
    router.add_route("10.0.0.0/8", "10.1.0.10")
    nic, next_hop = router.lookup_route("10.0.0.77")
    assert str(next_hop) == "10.0.0.77"


def test_add_route_replaces_same_subnet():
    sim, router, client, server = build_two_lans()
    router.add_route("192.168.0.0/24", "10.0.0.5", source="rip")
    router.add_route("192.168.0.0/24", "10.0.0.6", source="static")
    routes = [r for r in router.routes() if str(r.subnet) == "192.168.0.0/24"]
    assert len(routes) == 1
    assert str(routes[0].gateway) == "10.0.0.6"


def test_remove_routes_from_source():
    sim, router, client, server = build_two_lans()
    router.add_route("192.168.0.0/24", "10.0.0.5", source="rip")
    router.add_route("192.168.1.0/24", "10.0.0.5", source="static")
    router.remove_routes_from("rip")
    assert len(router.routes()) == 1


def test_remove_route_by_subnet():
    sim, router, client, server = build_two_lans()
    router.add_route("192.168.0.0/24", "10.0.0.5")
    router.remove_route("192.168.0.0/24")
    assert router.routes() == []


def test_route_without_reachable_gateway_is_skipped():
    sim, router, client, server = build_two_lans()
    router.add_route("192.168.0.0/24", "172.31.0.1")
    assert router.lookup_route("192.168.0.5") is None


def test_no_route_drops():
    sim, router, client, server = build_two_lans()
    client.send_udp("x", "172.31.0.9", 100, src_port=1)
    sim.run_until_idle()
    assert router.packets_dropped >= 1


def test_static_route_repr():
    route = StaticRoute("10.0.0.0/24", "10.1.0.1", source="rip")
    assert "10.0.0.0/24" in repr(route)
    assert "rip" in repr(route)
    onlink = StaticRoute("10.0.0.0/24")
    assert "on-link" in repr(onlink)

"""Unit tests for ARP: resolution, caching, staleness, spoofing."""

from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.sim.simulation import Simulation


def build(n=3):
    sim = Simulation(seed=2)
    lan = Lan(sim, "lan0", "10.0.0.0/24")
    hosts = []
    for index in range(n):
        host = Host(sim, "h{}".format(index))
        host.add_nic(lan, "10.0.0.{}".format(1 + index))
        hosts.append(host)
    return sim, lan, hosts


def test_resolution_happens_on_first_send():
    sim, lan, hosts = build()
    got = []
    hosts[1].open_udp(100, lambda p, s, d: got.append(p))
    hosts[0].send_udp("x", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    assert got == ["x"]
    assert hosts[0].arp.requests_sent == 1
    assert hosts[0].arp.cache.lookup("10.0.0.2") == hosts[1].nics[0].mac


def test_second_send_uses_cache():
    sim, lan, hosts = build()
    hosts[1].open_udp(100, lambda p, s, d: None)
    hosts[0].send_udp("x", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    hosts[0].send_udp("y", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    assert hosts[0].arp.requests_sent == 1


def test_pending_packets_flushed_in_order():
    sim, lan, hosts = build()
    got = []
    hosts[1].open_udp(100, lambda p, s, d: got.append(p))
    for payload in ("a", "b", "c"):
        hosts[0].send_udp(payload, "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    assert got == ["a", "b", "c"]


def test_resolution_failure_drops_packets():
    sim, lan, hosts = build()
    hosts[0].send_udp("x", "10.0.0.99", 100, src_port=1)
    sim.run_until_idle()
    assert hosts[0].arp.cache.lookup("10.0.0.99") is None
    failure = sim.trace.last(category="arp", event="resolution_failed")
    assert failure is not None
    assert failure.details["dropped"] == 1


def test_retries_bounded():
    sim, lan, hosts = build()
    hosts[0].send_udp("x", "10.0.0.99", 100, src_port=1)
    sim.run_until_idle()
    assert hosts[0].arp.requests_sent == 1 + hosts[0].arp.MAX_RETRIES


def test_cache_entry_expires():
    sim, lan, hosts = build()
    hosts[1].open_udp(100, lambda p, s, d: None)
    hosts[0].send_udp("x", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    sim.run(until=sim.now + hosts[0].arp.cache.lifetime + 1)
    assert hosts[0].arp.cache.lookup("10.0.0.2") is None


def test_stale_entry_blackholes_after_owner_crash():
    sim, lan, hosts = build()
    got = []
    hosts[1].open_udp(100, lambda p, s, d: got.append(p))
    hosts[1].nics[0].bind_ip("10.0.0.50")
    hosts[0].send_udp("x", "10.0.0.50", 100, src_port=1)
    sim.run_until_idle()
    FaultInjector(sim).crash_host(hosts[1])
    hosts[0].send_udp("y", "10.0.0.50", 100, src_port=1)
    sim.run_until_idle()
    assert got == ["x"]


def test_spoofed_announce_repoints_traffic():
    sim, lan, hosts = build()
    got = []
    hosts[1].open_udp(100, lambda p, s, d: got.append(("h1", p)))
    hosts[2].open_udp(100, lambda p, s, d: got.append(("h2", p)))
    hosts[1].nics[0].bind_ip("10.0.0.50")
    hosts[0].send_udp("x", "10.0.0.50", 100, src_port=1)
    sim.run_until_idle()
    FaultInjector(sim).crash_host(hosts[1])
    hosts[2].nics[0].bind_ip("10.0.0.50")
    hosts[2].arp.announce(hosts[2].nics[0], "10.0.0.50")
    sim.run_until_idle()
    hosts[0].send_udp("y", "10.0.0.50", 100, src_port=1)
    sim.run_until_idle()
    assert got == [("h1", "x"), ("h2", "y")]


def test_targeted_announce_updates_only_targets():
    sim, lan, hosts = build()
    hosts[1].nics[0].bind_ip("10.0.0.50")
    # Seed caches on h0 and h2 with the old binding.
    for sender in (hosts[0], hosts[2]):
        sender.send_udp("x", "10.0.0.50", 100, src_port=1)
    sim.run_until_idle()
    old_mac = hosts[1].nics[0].mac
    # h2 takes over, notifying only h0.
    hosts[2].nics[0].bind_ip("10.0.0.50")
    hosts[2].arp.announce(
        hosts[2].nics[0], "10.0.0.50", target_macs=[hosts[0].nics[0].mac]
    )
    sim.run_until_idle()
    assert hosts[0].arp.cache.lookup("10.0.0.50") == hosts[2].nics[0].mac
    assert hosts[2].arp.cache.lookup("10.0.0.50") in (old_mac, None)


def test_request_for_unowned_ip_not_answered():
    sim, lan, hosts = build()
    hosts[0].send_udp("x", "10.0.0.77", 100, src_port=1)
    sim.run_until_idle()
    assert hosts[1].arp.replies_sent == 0


def test_any_arp_traffic_refreshes_sender_entry():
    sim, lan, hosts = build()
    hosts[1].open_udp(100, lambda p, s, d: None)
    hosts[0].send_udp("x", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    # The request itself taught h1 (and h2) about h0.
    assert hosts[1].arp.cache.lookup("10.0.0.1") == hosts[0].nics[0].mac


def test_cache_snapshot_and_known_ips():
    sim, lan, hosts = build()
    hosts[1].open_udp(100, lambda p, s, d: None)
    hosts[0].send_udp("x", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    snapshot = hosts[0].arp.cache.snapshot()
    assert set(snapshot) == hosts[0].arp.cache.known_ips()
    assert len(hosts[0].arp.cache) == len(snapshot)


def test_drop_removes_entry():
    sim, lan, hosts = build()
    hosts[0].arp.cache.store("10.0.0.2", hosts[1].nics[0].mac)
    hosts[0].arp.cache.drop("10.0.0.2")
    assert hosts[0].arp.cache.lookup("10.0.0.2") is None


def test_reboot_forgets_resolutions_in_flight():
    # A host that crashed with a resolution in flight used to keep the
    # queue: its retry chain had died with it, so after recovery the
    # next packet for that peer joined the stale queue and no request
    # was ever sent again — the peer was blackholed until an unrelated
    # ARP frame from it happened by, which then also transmitted the
    # pre-crash packet.
    sim, lan, hosts = build(n=2)
    a, b = hosts
    got = []
    b.open_udp(100, lambda p, s, d: got.append(p))
    b.nics[0].set_up(False)
    a.send_udp("before-crash", "10.0.0.2", 100, src_port=1)
    sim.run(until=0.5)
    assert a.arp.requests_sent == 1
    a.crash()
    sim.run(until=10.0)
    a.recover()
    b.nics[0].set_up(True)
    a.send_udp("after-recovery", "10.0.0.2", 100, src_port=1)
    sim.run(until=20.0)
    # A fresh request went out, the new datagram arrived, and what was
    # queued before the crash was lost with the machine.
    assert a.arp.requests_sent == 2
    assert got == ["after-recovery"]
    assert a.arp._pending == {}

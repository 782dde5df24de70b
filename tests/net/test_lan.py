"""Unit tests for the LAN segment: delivery, partitions, loss."""

from types import SimpleNamespace

import pytest

from repro.net.addresses import BROADCAST_MAC
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.linkfault import GilbertElliott
from repro.net.packet import EthernetFrame
from repro.sim.simulation import Simulation

# A test-only ethertype: real host handlers ignore it, so frames can
# carry plain strings without confusing the IP layer.
TEST_ETHERTYPE = 0x9999


def build(n=3, **lan_kwargs):
    sim = Simulation(seed=1)
    lan = Lan(sim, "lan0", "10.0.0.0/24", **lan_kwargs)
    hosts = []
    for index in range(n):
        host = Host(sim, "h{}".format(index))
        host.add_nic(lan, "10.0.0.{}".format(1 + index))
        hosts.append(host)
    return sim, lan, hosts


def capture_frames(host):
    received = []
    host.handle_frame = lambda nic, frame: received.append(frame)
    return received


def test_unicast_reaches_only_destination_mac():
    sim, lan, hosts = build()
    received_1 = capture_frames(hosts[1])
    received_2 = capture_frames(hosts[2])
    frame = EthernetFrame(hosts[0].nics[0].mac, hosts[1].nics[0].mac, TEST_ETHERTYPE, "x")
    hosts[0].nics[0].transmit(frame)
    sim.run_until_idle()
    assert len(received_1) == 1
    assert len(received_2) == 0


def test_broadcast_reaches_everyone_but_sender():
    sim, lan, hosts = build()
    received = [capture_frames(host) for host in hosts]
    frame = EthernetFrame(hosts[0].nics[0].mac, BROADCAST_MAC, TEST_ETHERTYPE, "x")
    hosts[0].nics[0].transmit(frame)
    sim.run_until_idle()
    assert [len(r) for r in received] == [0, 1, 1]


def test_delivery_is_delayed_by_latency():
    sim, lan, hosts = build()
    lan.latency = 0.005
    times = []
    hosts[1].handle_frame = lambda nic, frame: times.append(sim.now)
    frame = EthernetFrame(hosts[0].nics[0].mac, hosts[1].nics[0].mac, TEST_ETHERTYPE, "x")
    hosts[0].nics[0].transmit(frame)
    sim.run_until_idle()
    assert times == [0.005]


def test_partition_blocks_cross_group_frames():
    sim, lan, hosts = build()
    received = capture_frames(hosts[1])
    lan.partition([[hosts[0]], [hosts[1], hosts[2]]])
    frame = EthernetFrame(hosts[0].nics[0].mac, BROADCAST_MAC, TEST_ETHERTYPE, "x")
    hosts[0].nics[0].transmit(frame)
    sim.run_until_idle()
    assert received == []


def test_partition_allows_same_group_frames():
    sim, lan, hosts = build()
    received = capture_frames(hosts[2])
    lan.partition([[hosts[0]], [hosts[1], hosts[2]]])
    frame = EthernetFrame(hosts[1].nics[0].mac, BROADCAST_MAC, TEST_ETHERTYPE, "x")
    hosts[1].nics[0].transmit(frame)
    sim.run_until_idle()
    assert len(received) == 1


def test_heal_restores_full_connectivity():
    sim, lan, hosts = build()
    received = capture_frames(hosts[1])
    lan.heal(lan.partition([[hosts[0]], [hosts[1]]]))
    frame = EthernetFrame(hosts[0].nics[0].mac, BROADCAST_MAC, TEST_ETHERTYPE, "x")
    hosts[0].nics[0].transmit(frame)
    sim.run_until_idle()
    assert len(received) == 1


def test_unlisted_hosts_stay_in_group_zero():
    sim, lan, hosts = build()
    lan.partition([[hosts[1]]])
    nic0, nic1, nic2 = (h.nics[0] for h in hosts)
    assert lan.connected(nic0, nic2)
    assert not lan.connected(nic0, nic1)


def test_connected_reflects_groups():
    sim, lan, hosts = build()
    nic0, nic1 = hosts[0].nics[0], hosts[1].nics[0]
    assert lan.connected(nic0, nic1)
    lan.partition([[hosts[0]], [hosts[1]]])
    assert not lan.connected(nic0, nic1)


def test_down_nic_receives_nothing():
    sim, lan, hosts = build()
    received = capture_frames(hosts[1])
    hosts[1].nics[0].set_up(False)
    frame = EthernetFrame(hosts[0].nics[0].mac, BROADCAST_MAC, TEST_ETHERTYPE, "x")
    hosts[0].nics[0].transmit(frame)
    sim.run_until_idle()
    assert received == []


def test_down_nic_sends_nothing():
    sim, lan, hosts = build()
    received = capture_frames(hosts[1])
    hosts[0].nics[0].set_up(False)
    frame = EthernetFrame(hosts[0].nics[0].mac, BROADCAST_MAC, TEST_ETHERTYPE, "x")
    hosts[0].nics[0].transmit(frame)
    sim.run_until_idle()
    assert received == []


def test_loss_drops_frames_deterministically_per_seed():
    sim, lan, hosts = build(loss=1.0)
    received = capture_frames(hosts[1])
    frame = EthernetFrame(hosts[0].nics[0].mac, hosts[1].nics[0].mac, TEST_ETHERTYPE, "x")
    hosts[0].nics[0].transmit(frame)
    sim.run_until_idle()
    assert received == []
    assert lan.frames_lost == 1


def test_jitter_spreads_delivery_times():
    sim, lan, hosts = build(jitter=0.01)
    times = []
    hosts[1].handle_frame = lambda nic, frame: times.append(sim.now)
    for _ in range(20):
        frame = EthernetFrame(
            hosts[0].nics[0].mac, hosts[1].nics[0].mac, TEST_ETHERTYPE, "x"
        )
        hosts[0].nics[0].transmit(frame)
    sim.run_until_idle()
    assert len(set(times)) > 1


def test_frame_counters():
    sim, lan, hosts = build()
    frame = EthernetFrame(hosts[0].nics[0].mac, BROADCAST_MAC, TEST_ETHERTYPE, "x")
    hosts[0].nics[0].transmit(frame)
    sim.run_until_idle()
    assert lan.frames_sent == 1
    assert lan.frames_delivered == 2


def test_detach_removes_nic():
    sim, lan, hosts = build()
    nic = hosts[2].nics[0]
    lan.detach(nic)
    assert nic not in lan.nics


# ----------------------------------------------------------------------
# cached recipient lists and invalidation


def test_broadcast_cache_invalidated_by_attach():
    sim, lan, hosts = build(n=2)
    src = hosts[0].nics[0]
    frame = EthernetFrame(src.mac, BROADCAST_MAC, TEST_ETHERTYPE, "x")
    src.transmit(frame)  # primes the cache for src
    late = Host(sim, "late")
    late.add_nic(lan, "10.0.0.99")
    received = capture_frames(late)
    src.transmit(frame)
    sim.run_until_idle()
    assert len(received) == 1


def test_broadcast_cache_invalidated_by_detach():
    sim, lan, hosts = build(n=3)
    src = hosts[0].nics[0]
    gone = hosts[2].nics[0]
    frame = EthernetFrame(src.mac, BROADCAST_MAC, TEST_ETHERTYPE, "x")
    src.transmit(frame)
    sim.run_until_idle()
    received = capture_frames(hosts[2])
    lan.detach(gone)
    src.transmit(frame)
    sim.run_until_idle()
    assert received == []


def test_broadcast_cache_invalidated_by_partition_and_heal():
    sim, lan, hosts = build(n=3)
    src = hosts[0].nics[0]
    frame = EthernetFrame(src.mac, BROADCAST_MAC, TEST_ETHERTYPE, "x")
    src.transmit(frame)  # prime with everyone reachable
    sim.run_until_idle()
    received = [capture_frames(host) for host in hosts]
    cut = lan.partition([[hosts[0], hosts[1]], [hosts[2]]])
    src.transmit(frame)
    sim.run_until_idle()
    assert [len(r) for r in received] == [0, 1, 0]
    lan.heal(cut)
    src.transmit(frame)
    sim.run_until_idle()
    assert [len(r) for r in received] == [0, 2, 1]


def test_mac_index_invalidated_by_detach():
    sim, lan, hosts = build(n=3)
    src = hosts[0].nics[0]
    dst = hosts[1].nics[0]
    frame = EthernetFrame(src.mac, dst.mac, TEST_ETHERTYPE, "x")
    src.transmit(frame)  # primes the unicast MAC index
    sim.run_until_idle()
    received = capture_frames(hosts[1])
    lan.detach(dst)
    src.transmit(frame)
    sim.run_until_idle()
    assert received == []


def test_cached_fanout_preserves_loss_rng_draw_order():
    # Two topologically identical LANs — one with caches primed by an
    # extra warm-up broadcast, one cold — must lose exactly the same
    # frames: the recipient iteration order (and with it the RNG draw
    # sequence) is part of the deterministic contract.
    def run(warmup):
        sim, lan, hosts = build(n=4, loss=0.5)
        src = hosts[0].nics[0]
        frame = EthernetFrame(src.mac, BROADCAST_MAC, TEST_ETHERTYPE, "x")
        received = [capture_frames(host) for host in hosts]
        if warmup:
            # Same number of RNG draws either way: warm the cache via a
            # second identical LAN sharing no RNG state.
            lan._broadcast_recipients(src)
        for _ in range(20):
            src.transmit(frame)
        sim.run_until_idle()
        return [len(r) for r in received]

    assert run(warmup=False) == run(warmup=True)


@pytest.mark.parametrize(
    "knob, make",
    [
        ("loss", lambda sim: Lan(sim, "bad", "10.0.0.0/24", loss=1.5)),
        ("loss", lambda sim: Lan(sim, "bad", "10.0.0.0/24", loss=-0.2)),
        ("loss", lambda sim: Lan(sim, "bad", "10.0.0.0/24", loss=float("nan"))),
        ("jitter", lambda sim: Lan(sim, "bad", "10.0.0.0/24", jitter=-0.01)),
        ("latency", lambda sim: Lan(sim, "bad", "10.0.0.0/24", latency=-0.001)),
        ("latency", lambda sim: Lan(sim, "bad", "10.0.0.0/24", latency=float("inf"))),
        ("loss", lambda sim: setattr(Lan(sim, "ok", "10.0.0.0/24"), "loss", 1.5)),
        ("duplication", lambda sim: Lan(sim, "ok", "10.0.0.0/24").set_duplication(2.0)),
        ("duplication", lambda sim: Lan(sim, "ok", "10.0.0.0/24").set_duplication(-1)),
        ("reordering probability",
         lambda sim: Lan(sim, "ok", "10.0.0.0/24").set_reordering(1.5)),
        ("reordering window",
         lambda sim: Lan(sim, "ok", "10.0.0.0/24").set_reordering(0.5, -0.1)),
    ],
)
def test_nonsense_knobs_are_rejected_naming_the_knob(knob, make):
    with pytest.raises(ValueError, match=knob):
        make(Simulation(seed=1))


def test_a_rejected_loss_write_changes_nothing():
    sim, lan, hosts = build(loss=0.25)
    changes = lan.changes
    with pytest.raises(ValueError):
        lan.loss = 2.0
    assert (lan.loss, lan.changes) == (0.25, changes)


VIP, PEER = "10.0.0.100", "10.0.0.1"


def _nothing(world):
    return None


def _aged_entry(world):
    cache = world.multi.arp.cache
    cache.store(PEER, world.nic.mac)
    world.sim.run_for(cache.lifetime + 1.0)


def _announce(world, _held):
    world.hosts[0].arp.announce(world.nic, PEER)
    world.sim.run_for(0.01)


#: Every site that writes what a flow resolver reads off a segment:
#: (name, set-up, the write given the set-up's result, what counts it —
#: the LAN, both LANs of ``multi`` (a host with a second NIC), or
#: ``multi``'s ARP cache, which counts its own writes).
WRITE_SITES = [
    ("bind_ip", _nothing, lambda w, _: w.nic.bind_ip(VIP), "lan"),
    ("unbind_ip", lambda w: w.nic.bind_ip(VIP), lambda w, _: w.nic.unbind_ip(VIP), "lan"),
    ("set_up", _nothing, lambda w, _: w.nic.set_up(False), "lan"),
    ("nic reset", lambda w: w.nic.set_up(False), lambda w, _: w.nic.reset(), "lan"),
    ("attach", _nothing, lambda w, _: w.hosts[0].add_nic(w.lan, "10.0.0.70"), "lan"),
    ("detach", _nothing, lambda w, _: w.lan.detach(w.nic), "lan"),
    ("partition", _nothing, lambda w, _: w.lan.partition([[w.hosts[0]]]), "lan"),
    ("heal", lambda w: w.lan.partition([[w.hosts[0]]]), lambda w, cut: w.lan.heal(cut), "lan"),
    ("block_direction", _nothing,
     lambda w, _: w.lan.block_direction(w.hosts[0], w.hosts[1]), "lan"),
    ("unblock", lambda w: w.lan.block_direction(w.hosts[0], w.hosts[1]),
     lambda w, pairs: w.lan.unblock(pairs), "lan"),
    ("link model", _nothing, lambda w, _: w.lan.add_link_model(GilbertElliott()), "lan"),
    ("loss", _nothing, lambda w, _: setattr(w.lan, "loss", 0.1), "lan"),
    ("crash", _nothing, lambda w, _: w.multi.crash(), "host"),
    ("recover", lambda w: w.multi.crash(), lambda w, _: w.multi.recover(), "host"),
    ("set_slowdown", _nothing, lambda w, _: w.multi.set_slowdown(2.0), "host"),
    ("arp store", _nothing, lambda w, _: w.multi.arp.cache.store(PEER, w.nic.mac), "cache"),
    ("arp drop", _nothing, lambda w, _: w.multi.arp.cache.drop(PEER), "cache"),
    ("arp expiry", _aged_entry, lambda w, _: w.multi.arp.cache.lookup(PEER), "cache"),
    ("arp reset", _nothing, lambda w, _: w.multi.arp.reset(), "cache"),
    ("arp frame", _nothing, _announce, "cache"),
]


@pytest.mark.parametrize(
    "setup, write, counter",
    [site[1:] for site in WRITE_SITES],
    ids=[site[0] for site in WRITE_SITES],
)
def test_every_resolver_input_write_counts_as_a_change(setup, write, counter):
    sim, lan, hosts = build()
    other = Lan(sim, "lan1", "10.1.0.0/24")
    hosts[2].add_nic(other, "10.1.0.3")
    world = SimpleNamespace(sim=sim, lan=lan, hosts=hosts, nic=hosts[0].nics[0], multi=hosts[2])
    held = setup(world)

    def counts():
        cache = world.multi.arp.cache
        return lan.changes, other.changes, (cache, cache.updates)

    before = counts()
    write(world, held)
    after = counts()
    moved = [now != then for now, then in zip(after, before)]
    assert moved == {
        "lan": [True, False, False],
        "host": [True, True, moved[2]],
        "cache": [False, False, True],
    }[counter]

"""Tests for the packet-capture debugging tool."""

from repro.net.capture import PacketCapture, decode_frame
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.packet import ARP_ETHERTYPE
from repro.sim.simulation import Simulation


def build():
    sim = Simulation(seed=8)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    a = Host(sim, "a")
    a.add_nic(lan, "10.0.0.1")
    b = Host(sim, "b")
    b.add_nic(lan, "10.0.0.2")
    b.open_udp(100, lambda p, s, d: None)
    return sim, lan, a, b


def test_capture_records_arp_and_udp():
    sim, lan, a, b = build()
    capture = PacketCapture(lan)
    a.send_udp("hello", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    summary = capture.summary()
    assert summary.get("arp", 0) >= 2  # request + reply
    assert summary.get("udp", 0) == 1


def test_predicate_filters_frames():
    sim, lan, a, b = build()
    capture = PacketCapture(lan, predicate=lambda f: f.ethertype == ARP_ETHERTYPE)
    a.send_udp("hello", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    assert set(capture.summary()) == {"arp"}


def test_capture_does_not_perturb_delivery():
    sim, lan, a, b = build()
    got = []
    b.open_udp(200, lambda p, s, d: got.append(p))
    PacketCapture(lan)
    a.send_udp("x", "10.0.0.2", 200, src_port=1)
    sim.run_until_idle()
    assert got == ["x"]


def test_stop_detaches():
    sim, lan, a, b = build()
    capture = PacketCapture(lan)
    a.send_udp("x", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    count = len(capture)
    capture.stop()
    a.send_udp("y", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    assert len(capture) == count


def test_capacity_bounds_memory():
    sim, lan, a, b = build()
    capture = PacketCapture(lan, capacity=2)
    for index in range(5):
        a.send_udp(index, "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    assert len(capture) == 2
    assert capture.dropped > 0


def test_select_by_kind_and_time():
    sim, lan, a, b = build()
    capture = PacketCapture(lan)
    a.send_udp("x", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    udp_frames = capture.select(kind="udp")
    assert len(udp_frames) == 1
    assert capture.select(since=sim.now + 1) == []


def test_format_renders_lines():
    sim, lan, a, b = build()
    capture = PacketCapture(lan)
    a.send_udp("x", "10.0.0.2", 100, src_port=1)
    sim.run_until_idle()
    text = capture.format()
    assert "udp" in text
    assert "10.0.0.2:100" in text
    assert capture.format(last=1).count("\n") == 0


def test_decode_gratuitous_arp():
    from repro.net.addresses import IPAddress, MACAddress
    from repro.net.packet import ArpOp, ArpPacket, EthernetFrame

    vip = IPAddress("10.0.0.50")
    mac = MACAddress(5)
    frame = EthernetFrame(
        mac, mac, ARP_ETHERTYPE, ArpPacket(ArpOp.REPLY, vip, mac, vip, mac)
    )
    kind, info = decode_frame(frame)
    assert kind == "arp"
    assert "gratuitous" in info


def test_decode_unknown_ethertype():
    from repro.net.addresses import MACAddress
    from repro.net.packet import EthernetFrame

    frame = EthernetFrame(MACAddress(1), MACAddress(2), 0x9999, None)
    kind, info = decode_frame(frame)
    assert kind == "other"
    assert "0x9999" in info

"""Unit tests for the fault injector."""

import pytest

from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.linkfault import GilbertElliott
from repro.sim.simulation import Simulation


def build():
    sim = Simulation(seed=6)
    lan = Lan(sim, "lan0", "10.0.0.0/24")
    hosts = []
    for index in range(3):
        host = Host(sim, "h{}".format(index))
        host.add_nic(lan, "10.0.0.{}".format(1 + index))
        hosts.append(host)
    return sim, lan, hosts, FaultInjector(sim)


def test_crash_and_recover():
    sim, lan, hosts, injector = build()
    injector.crash_host(hosts[0])
    assert not hosts[0].alive
    injector.recover_host(hosts[0])
    assert hosts[0].alive


def test_nic_down_up():
    sim, lan, hosts, injector = build()
    nic = hosts[0].nics[0]
    injector.nic_down(nic)
    assert not nic.up
    injector.nic_up(nic)
    assert nic.up


def test_partition_and_heal():
    sim, lan, hosts, injector = build()
    fault = injector.partition(lan, [[hosts[0]], [hosts[1], hosts[2]]])
    assert not lan.connected(hosts[0].nics[0], hosts[1].nics[0])
    fault.undo()
    assert lan.connected(hosts[0].nics[0], hosts[1].nics[0])


def test_scheduled_faults_fire_at_requested_times():
    sim, lan, hosts, injector = build()
    sim.after(1.0, injector.crash_host, hosts[0])
    sim.at(2.0, injector.recover_host, hosts[0])
    sim.run(until=0.5)
    assert hosts[0].alive
    sim.run(until=1.5)
    assert not hosts[0].alive
    sim.run(until=2.5)
    assert hosts[0].alive


def test_fault_log_records_everything():
    sim, lan, hosts, injector = build()
    injector.crash_host(hosts[0])
    injector.nic_down(hosts[1].nics[0])
    injector.partition(lan, [[hosts[2]]]).undo()
    kinds = [kind for _, kind, _ in injector.log]
    assert kinds == ["crash", "nic_down", "partition", "heal"]


def test_faults_traced():
    sim, lan, hosts, injector = build()
    injector.crash_host(hosts[0])
    assert sim.trace.last(category="fault", event="crash") is not None


# ----------------------------------------------------------------------
# fault-log records (check-artifact form)


def test_log_records_unpack_as_legacy_triples():
    sim, lan, hosts, injector = build()
    injector.crash_host(hosts[0])
    time, kind, target = injector.log[0]
    assert (time, kind, target) == (sim.now, "crash", "h0")


def test_log_records_serialise_to_dicts():
    sim, lan, hosts, injector = build()
    injector.crash_host(hosts[0])
    injector.slow_host(hosts[1], 2.5)
    dicts = injector.log_as_dicts()
    assert dicts[0] == {"time": sim.now, "kind": "crash", "target": "h0"}
    assert dicts[1] == {
        "time": sim.now,
        "kind": "slow_host",
        "target": "h1",
        "param": 2.5,
    }
    # param is omitted, not null, when a fault has no magnitude.
    assert "param" not in dicts[0]


# ----------------------------------------------------------------------
# gray repertoire (docs/FAULTS.md)


def test_asym_partition_is_one_way():
    sim, lan, hosts, injector = build()
    deaf, talker = hosts[0].nics[0], hosts[1].nics[0]
    fault = injector.asym_partition(lan, [hosts[0]])
    # The deaf host's own transmissions still flow...
    assert lan.reaches(deaf, talker)
    # ...but nothing reaches it, so the pair audits as disconnected.
    assert not lan.reaches(talker, deaf)
    assert not lan.connected(deaf, talker)
    fault.undo()
    assert lan.connected(deaf, talker)


def test_asym_partition_log_names_lan_and_deaf_hosts():
    sim, lan, hosts, injector = build()
    injector.asym_partition(lan, [hosts[2], hosts[0]])
    _, kind, target = injector.log[-1]
    assert kind == "asym_partition"
    assert target == "lan0:h0,h2"  # deaf side sorted by host name


def test_burst_loss_installs_and_removes_the_link_model():
    sim, lan, hosts, injector = build()
    model = GilbertElliott(loss_bad=0.9)
    fault = injector.burst_loss_on(lan, model)
    assert lan.link_model is model
    assert injector.log[-1].param == model.describe()
    fault.undo()
    assert lan.link_model is None
    assert injector.log[-1].kind == "burst_loss_off"


def test_slow_and_unslow_host():
    sim, lan, hosts, injector = build()
    fault = injector.slow_host(hosts[0], 3.0)
    assert hosts[0].time_scale == 3.0
    fault.undo()
    assert hosts[0].time_scale == 1.0


def test_skew_and_unskew_clock():
    sim, lan, hosts, injector = build()
    fault = injector.skew_clock(hosts[0], -2.5)
    assert hosts[0].local_time == sim.now - 2.5
    fault.undo()
    assert hosts[0].local_time == sim.now
    fault.undo()  # a second undo does nothing
    kinds = [kind for _, kind, _ in injector.log]
    assert kinds == ["clock_skew", "clock_unskew"]


# ----------------------------------------------------------------------
# overlapping faults of one kind compose


#: kind -> (earlier fault, later fault, "the later one is still in force").
OVERLAPS = {
    "partition": (
        lambda injector, lan, hosts: injector.partition(lan, [[hosts[0]]]),
        lambda injector, lan, hosts: injector.partition(lan, [[hosts[0], hosts[1]]]),
        lambda lan, hosts: not lan.connected(hosts[1].nics[0], hosts[2].nics[0]),
    ),
    "asym_partition": (
        lambda injector, lan, hosts: injector.asym_partition(lan, [hosts[0]]),
        lambda injector, lan, hosts: injector.asym_partition(lan, [hosts[0], hosts[1]]),
        lambda lan, hosts: not lan.reaches(hosts[2].nics[0], hosts[0].nics[0])
        and not lan.reaches(hosts[2].nics[0], hosts[1].nics[0]),
    ),
    "burst_loss_on": (
        lambda injector, lan, hosts: injector.burst_loss_on(lan, GilbertElliott(loss_bad=0.6)),
        lambda injector, lan, hosts: injector.burst_loss_on(lan, GilbertElliott(loss_bad=0.9)),
        lambda lan, hosts: lan.link_model is not None and lan.link_model.loss_bad == 0.9,
    ),
    "slow_host": (
        lambda injector, lan, hosts: injector.slow_host(hosts[0], 2.0),
        lambda injector, lan, hosts: injector.slow_host(hosts[0], 3.0),
        lambda lan, hosts: hosts[0].time_scale == 3.0,
    ),
}


@pytest.mark.parametrize("kind", sorted(OVERLAPS))
def test_undoing_the_earlier_fault_leaves_the_later_in_force(kind):
    sim, lan, hosts, injector = build()
    earlier, later, later_in_force = OVERLAPS[kind]
    first = earlier(injector, lan, hosts)
    later(injector, lan, hosts)
    first.undo()
    assert later_in_force(lan, hosts)


def test_undoing_the_later_fault_restores_the_earlier():
    sim, lan, hosts, injector = build()
    nics = [host.nics[0] for host in hosts]
    injector.partition(lan, [[hosts[0]]])
    injector.partition(lan, [[hosts[0], hosts[1]]]).undo()
    assert lan.connected(nics[1], nics[2]) and not lan.connected(nics[0], nics[1])
    first = GilbertElliott(loss_bad=0.6)
    injector.burst_loss_on(lan, first)
    injector.burst_loss_on(lan, GilbertElliott(loss_bad=0.9)).undo()
    assert lan.link_model is first
    injector.skew_clock(hosts[0], 1.0)
    injector.skew_clock(hosts[0], 2.0).undo()
    assert hosts[0].clock_skew == 1.0


def test_crossing_cuts_number_their_groups_densely():
    sim, lan, hosts, injector = build()
    injector.partition(lan, [[hosts[0]]])
    injector.partition(lan, [[hosts[1]]])
    nics = [host.nics[0] for host in hosts]
    assert sorted(lan._groups[nic] for nic in nics) == [0, 1, 2]


def test_a_crash_voids_the_slowdowns_in_force():
    sim, lan, hosts, injector = build()
    fault = injector.slow_host(hosts[0], 3.0)
    injector.crash_host(hosts[0])
    injector.recover_host(hosts[0])
    fault.undo()
    assert hosts[0].time_scale == 1.0
    kinds = [kind for _, kind, _ in injector.log]
    assert kinds == ["slow_host", "crash", "recover"]
    # A slowdown after the reboot does not uncover the void one.
    injector.slow_host(hosts[0], 2.0).undo()
    assert hosts[0].time_scale == 1.0


def test_the_channel_changes_only_through_its_faults():
    sim, lan, hosts, injector = build()
    with pytest.raises(AttributeError):
        lan.link_model = GilbertElliott()


def test_onset_and_undo_trace_records_name_the_fault():
    sim, lan, hosts, injector = build()
    fault = injector.asym_partition(lan, [hosts[0]])
    fault.undo()
    records = sim.trace.select(category="fault")
    assert [r.details["fault"] for r in records] == [fault.serial, fault.serial]
    # The fault log keeps its historical form.
    assert injector.log_as_dicts()[-1] == {"time": 0.0, "kind": "asym_heal", "target": "lan0"}


# ----------------------------------------------------------------------
# state corruption (docs/FAULTS.md, "State corruption")


def test_dict_params_serialise_with_sorted_keys_and_plain_lists():
    """Corruption params are dicts; to_dict must normalise them so a
    JSON round trip compares equal to a fresh run byte-for-byte."""
    import json

    from repro.net.fault import FaultRecord

    record = FaultRecord(
        1.5,
        "corrupt_vip_table",
        "wack@h0",
        param={"slot": "10.0.0.100", "mutation": "drop", "extra": ("a", "b")},
    )
    data = record.to_dict()
    assert list(data["param"]) == ["extra", "mutation", "slot"]
    assert data["param"]["extra"] == ["a", "b"]
    dumped = json.dumps(data, sort_keys=True)
    assert json.loads(dumped) == data


def test_nested_param_serialisation_is_recursive():
    from repro.net.fault import _serialize_param

    value = {"b": {"z": 1, "a": (2, 3)}, "a": [{"y": 0, "x": 1}]}
    normalised = _serialize_param(value)
    assert list(normalised) == ["a", "b"]
    assert list(normalised["b"]) == ["a", "z"]
    assert normalised["b"]["a"] == [2, 3]
    assert list(normalised["a"][0]) == ["x", "y"]


def test_corruption_draws_come_from_dedicated_stream():
    """A trial that never corrupts must not fork fault/corrupt at all,
    and corruption draws must not perturb any other stream."""
    sim, lan, hosts, injector = build()
    assert injector._corrupt_stream is None
    rng = injector._corrupt_rng()
    assert injector._corrupt_stream is rng
    assert rng is sim.rng.stream("fault/corrupt")

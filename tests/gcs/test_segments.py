"""Segmented membership: merge properties and protocol behaviour.

Property layer — :func:`merge_digests`, how an observer folds the
segments' records into one fleet view: agreement (same records, same
view, regardless of how the dict was assembled), monotonic view
versions under epoch bumps, and no phantom members. Protocol layer —
small SegmentNode clusters exercise boot convergence, member death,
leader succession, epoch hand-off to a revived leader and whole-segment
death; a differential test holds the skipped leader-lease ticks to an
always-ticking watch.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gcs.segments import (
    Fleet,
    GlobalView,
    SegmentConfig,
    SegmentNode,
    merge_digests,
)
from repro.net.addresses import IPAddress
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.sim.simulation import Simulation
from repro.sim.timers import PeriodicTimer

names = st.text(alphabet="abcdefgh01234", min_size=1, max_size=8)

digest_maps = st.dictionaries(
    keys=st.integers(0, 15),
    values=st.tuples(
        st.integers(0, 50),
        st.lists(names, max_size=8, unique=True).map(tuple),
    ),
    min_size=1,
    max_size=8,
)


@given(digests=digest_maps, order_seed=st.randoms(use_true_random=False))
def test_merge_agreement_is_insertion_order_independent(digests, order_seed):
    items = list(digests.items())
    order_seed.shuffle(items)
    shuffled = dict(items)
    assert merge_digests(digests) == merge_digests(shuffled)


@given(digests=digest_maps, data=st.data())
def test_merge_version_is_monotonic_under_epoch_bumps(digests, data):
    before = merge_digests(digests)
    segment = data.draw(st.sampled_from(sorted(digests)))
    epoch, alive = digests[segment]
    bumped = dict(digests)
    bumped[segment] = (epoch + data.draw(st.integers(1, 5)), alive)
    after = merge_digests(bumped)
    assert after.version > before.version


@given(digests=digest_maps)
def test_merge_has_no_phantom_members(digests):
    view = merge_digests(digests)
    union = set()
    for _epoch, alive in digests.values():
        union.update(alive)
    assert set(view.members) == union
    assert list(view.members) == sorted(view.members)


def test_global_view_equality_and_hash():
    a = GlobalView(3, ("a", "b"))
    b = GlobalView(3, ["a", "b"])
    c = GlobalView(4, ("a", "b"))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_fleet_segmentation():
    entries = [("n{}".format(i), "10.9.0.{}".format(1 + i)) for i in range(10)]
    fleet = Fleet(entries, segment_size=4)
    assert fleet.n_segments == 3
    assert fleet.segment_members(0) == ("n0", "n1", "n2", "n3")
    assert fleet.segment_members(2) == ("n8", "n9")
    assert fleet.initial_leader(1) == "n4"
    assert fleet.segment_of("n7") == 1


def test_rosters_and_the_boot_view_are_built_once_per_fleet():
    # Every node shares its fleet's immutable roster objects, so a
    # 1 024-host boot holds one copy of each, not one per node.
    _sim, _lan, fleet, _config, _hosts, nodes = build_segment_cluster(12, 4)
    assert fleet.segments() is fleet.segments()
    for segment in fleet.segments():
        assert fleet.segment_members(segment) is fleet.segment_members(segment)
        assert fleet.boot_views[segment].members is fleet.segment_members(segment)
        assert fleet.boot_views[segment].version == 0
    for node in nodes:
        assert node.peers is fleet.segment_members(node.segment)
        assert node.view is fleet.boot_views[node.segment]


def test_fleet_parses_addresses_once():
    fleet = Fleet([("n0", "10.9.0.1"), ("n1", IPAddress("10.9.0.2"))], segment_size=2)
    assert all(type(ip) is IPAddress for ip in fleet.ips)
    assert fleet.ip_of["n0"] is fleet.ips[0]
    assert fleet.ips == (IPAddress("10.9.0.1"), IPAddress("10.9.0.2"))


# ----------------------------------------------------------------------
# protocol behaviour on a live simulation


def build_segment_cluster(n, segment_size, seed=7, trace=False):
    sim = Simulation(seed=seed, trace_enabled=trace, metrics_enabled=False)
    lan = Lan(sim, "seg", "10.40.0.0/16")
    entries = [("n{:03d}".format(i), "10.40.1.{}".format(1 + i)) for i in range(n)]
    fleet = Fleet(entries, segment_size)
    config = SegmentConfig(segment_size=segment_size)
    hosts, nodes = [], []
    for index, (name, ip) in enumerate(entries):
        host = Host(sim, name)
        host.add_nic(lan, ip)
        nodes.append(SegmentNode(host, lan, index, fleet, config))
        hosts.append(host)
    for node in nodes:
        node.start()
    return sim, lan, fleet, config, hosts, nodes


def fleet_view(nodes):
    """Each segment's one view among its live nodes, merged as an observer does.

    Fails unless every segment's live nodes agree on one view naming
    exactly them.
    """
    records = {}
    for node in nodes:
        if node.alive:
            records.setdefault(node.segment, set()).add(node.view)
    for segment, views in records.items():
        (view,) = views
        live = tuple(node.node_name for node in nodes if node.alive and node.segment == segment)
        assert view.members == live
        records[segment] = (view.version, view.members)
    return merge_digests(records)


def test_boot_converges_to_one_full_view():
    sim, _lan, _fleet, _config, _hosts, nodes = build_segment_cluster(12, 4)
    sim.run_for(5.0)
    assert fleet_view(nodes) == GlobalView(0, [node.node_name for node in nodes])


def test_member_death_propagates_to_every_node():
    sim, _lan, _fleet, _config, hosts, nodes = build_segment_cluster(12, 4)
    sim.run_for(5.0)
    hosts[5].crash()
    sim.run_for(8.0)
    members = fleet_view(nodes).members
    assert "n005" not in members and len(members) == 11


def test_leader_death_elects_deterministic_successor():
    sim, _lan, _fleet, _config, hosts, nodes = build_segment_cluster(12, 4)
    sim.run_for(5.0)
    hosts[0].crash()  # initial leader of segment 0
    sim.run_for(8.0)
    assert "n000" not in fleet_view(nodes).members
    leaders = sorted(n.node_name for n in nodes if n.alive and n.is_leader)
    assert leaders == ["n001", "n004", "n008"]


def test_revived_leader_fast_forwards_epoch():
    sim, lan, fleet, config, hosts, nodes = build_segment_cluster(12, 4)
    sim.run_for(5.0)
    hosts[0].crash()
    sim.run_for(8.0)
    successor_epoch = nodes[1].view.version
    assert successor_epoch >= 1
    hosts[0].recover()
    nodes[0] = SegmentNode(hosts[0], lan, 0, fleet, config)
    nodes[0].start()
    sim.run_for(8.0)
    assert len(fleet_view(nodes).members) == 12
    # The original leader resumed duty past its successor's epoch, and
    # deaths still propagate.
    assert nodes[0].is_leader and not nodes[1].is_leader
    assert nodes[0].view.version > successor_epoch
    hosts[2].crash()
    sim.run_for(8.0)
    assert "n002" not in fleet_view(nodes).members


def test_whole_segment_death_and_revival():
    sim, lan, fleet, config, hosts, nodes = build_segment_cluster(12, 4)
    sim.run_for(5.0)
    for index in (8, 9, 10, 11):
        hosts[index].crash()
    sim.run_for(10.0)
    # The other segments never notice: nothing crosses segments.
    assert fleet_view(nodes) == GlobalView(0, [node.node_name for node in nodes[:8]])
    for index in (8, 9, 10, 11):
        hosts[index].recover()
        nodes[index] = SegmentNode(hosts[index], lan, index, fleet, config)
        nodes[index].start()
    sim.run_for(10.0)
    assert len(fleet_view(nodes).members) == 12


def test_corrupted_leader_epoch_is_reminted_from_member_heartbeats():
    sim, _lan, _fleet, config, hosts, nodes = build_segment_cluster(12, 4)
    sim.run_for(5.0)
    hosts[5].crash()  # segment 1 moves past epoch 0, so there is something to rewind
    sim.run_for(8.0)
    leader = nodes[4]
    was = leader._seg_epoch
    assert was >= 1
    FaultInjector(sim).corrupt_epoch(leader, amount=1)
    assert leader._seg_epoch == was - 1
    # The members still hold epoch ``was``; the first heartbeat carries
    # it back and the leader re-mints past it.
    sim.run_for(config.heartbeat_interval + 0.01)
    assert leader._seg_epoch == was + 1
    sim.run_for(2.0)
    assert {node.view for node in nodes[4:8] if node.alive} == {leader.view}
    assert leader.view.version == was + 1


def test_segment_config_validation():
    with pytest.raises(ValueError):
        SegmentConfig(segment_size=0)
    with pytest.raises(ValueError):
        SegmentConfig(heartbeat_interval=1.0, member_timeout=0.5)
    with pytest.raises(ValueError):
        SegmentConfig(beacon_interval=1.0, leader_timeout=0.5)


# ----------------------------------------------------------------------
# the leader-lease watch: a tick that would find the lease fresh is skipped


def _revive(sim, lan, fleet, config, hosts, nodes, index):
    hosts[index].recover()
    nodes[index] = SegmentNode(hosts[index], lan, index, fleet, config)
    nodes[index].start()


def _kill_leader(sim, lan, fleet, config, hosts, nodes):
    hosts[4].crash()  # initial leader of segment 1


def _slow_members_while_skipped(sim, lan, fleet, config, hosts, nodes):
    faults = FaultInjector(sim)
    members = [host for host, node in zip(hosts, nodes) if not node.is_leader]
    skipped_to = []

    def slow(factor):
        skipped_to.append([node._leader_watch_timer._skipped for node in nodes])
        return [faults.slow_host(host, factor) for host in members]

    # One starts and ends between two ticks a skip jumped over ...
    handles = slow(2.7)
    sim.run_for(0.3)
    for handle in handles:
        handle.undo()
    sim.run_for(0.7)
    # ... and one outlasts the skip and segment 1's leader: its members
    # find the silent lease on the slowed grid.
    handles = slow(2.3)
    sim.run_for(0.2)
    hosts[4].crash()
    sim.run_for(4.0)
    for handle in handles:
        handle.undo()
    return [[skip[0] for skip in skips if skip is not None] for skips in skipped_to]


def _crash_and_recover_member(sim, lan, fleet, config, hosts, nodes):
    hosts[6].crash()
    sim.run_for(5.0)
    _revive(sim, lan, fleet, config, hosts, nodes, 6)


def _abdicate(sim, lan, fleet, config, hosts, nodes):
    hosts[0].crash()
    sim.run_for(6.0)
    _revive(sim, lan, fleet, config, hosts, nodes, 0)  # n001 hands back


LEASE_STORIES = {
    "leader-kill": _kill_leader,
    "slowdown": _slow_members_while_skipped,
    "member-crash-recover": _crash_and_recover_member,
    "abdication": _abdicate,
}


def _lease_story(story, skipping, monkeypatch):
    if not skipping:
        monkeypatch.setattr(PeriodicTimer, "skip_while", lambda timer, idle: None)
    sim, lan, fleet, config, hosts, nodes = build_segment_cluster(12, 4, trace=True)
    sim.run_for(4.0)
    shown = LEASE_STORIES[story](sim, lan, fleet, config, hosts, nodes)
    sim.run_for(8.0)
    monkeypatch.undo()
    records = [
        (record.time, record.source, record.event, sorted(record.details.items()))
        for record in sim.trace.records
    ]
    views = [(node.node_name, node.view, node.is_leader) for node in nodes]
    return records, views, sim.scheduler.events_fired, shown


@pytest.mark.parametrize("story", sorted(LEASE_STORIES))
def test_skipped_lease_ticks_match_an_always_ticking_watch(story, monkeypatch):
    skipped = _lease_story(story, True, monkeypatch)
    ticking = _lease_story(story, False, monkeypatch)
    assert skipped[:2] == ticking[:2]
    assert skipped[2] < ticking[2]  # only fewer events fired
    events = {record[2] for record in skipped[0]}
    if story == "slowdown":
        # Both slowdowns began while ticks were skipped, the first ended
        # before a tick skipped to, and the lease expired on slowed grids.
        first, second = skipped[3]
        assert max(first) > 4.3 and second
        assert "leader_timeout" in events
    else:
        assert "leader_timeout" in events or story == "member-crash-recover"
    if story == "abdication":
        assert "abdicate" in events

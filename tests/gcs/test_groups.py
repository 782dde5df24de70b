"""Integration tests for process groups and client sessions."""

import pytest

from helpers import build_gcs_cluster, settle_gcs

from repro.gcs.client import SpreadConnectionError


def make_client(daemon, name="app"):
    client = daemon.connect(name)
    events = []
    client.on_message = lambda m: events.append(("msg", m.sender, m.payload))
    client.on_group_view = lambda v: events.append(("view", v.members, v.caused_by))
    client.on_disconnect = lambda: events.append(("disconnect",))
    return client, events


def test_join_delivers_membership_to_all_members():
    cluster = settle_gcs(build_gcs_cluster(3))
    client_a, events_a = make_client(cluster.daemons[0])
    client_a.join("g")
    cluster.sim.run_for(0.2)
    client_b, events_b = make_client(cluster.daemons[1])
    client_b.join("g")
    cluster.sim.run_for(0.2)
    both = (client_a.private_name, client_b.private_name)
    assert events_a[-1] == ("view", tuple(sorted(both)), "join")
    assert events_b[-1] == ("view", tuple(sorted(both)), "join")


def test_member_lists_are_sorted_private_names():
    cluster = settle_gcs(build_gcs_cluster(4))
    clients = []
    for daemon in cluster.daemons:
        client, _ = make_client(daemon)
        client.join("g")
        clients.append(client)
    cluster.sim.run_for(0.5)
    members = cluster.daemons[0].groups["g"]
    assert sorted(members) == sorted(c.private_name for c in clients)


def test_graceful_leave_is_lightweight():
    """A client leave must NOT trigger daemon membership reconfiguration."""
    cluster = settle_gcs(build_gcs_cluster(3))
    client_a, _ = make_client(cluster.daemons[0])
    client_b, events_b = make_client(cluster.daemons[1])
    client_a.join("g")
    client_b.join("g")
    cluster.sim.run_for(0.5)
    installs_before = cluster.daemons[1].membership.views_installed
    leave_time = cluster.sim.now
    client_a.leave("g")
    cluster.sim.run_for(0.3)
    assert cluster.daemons[1].membership.views_installed == installs_before
    view_events = [e for e in events_b if e[0] == "view"]
    assert view_events[-1] == ("view", (client_b.private_name,), "leave")
    # The notification arrived within milliseconds, not timeout-scale.
    assert cluster.sim.now - leave_time < 1.0


def test_client_disconnect_leaves_all_groups():
    cluster = settle_gcs(build_gcs_cluster(2))
    client_a, _ = make_client(cluster.daemons[0])
    client_b, events_b = make_client(cluster.daemons[1])
    client_a.join("g1")
    client_a.join("g2")
    client_b.join("g1")
    client_b.join("g2")
    cluster.sim.run_for(0.5)
    client_a.disconnect()
    cluster.sim.run_for(0.3)
    assert cluster.daemons[1].groups["g1"] == {client_b.private_name}
    assert cluster.daemons[1].groups["g2"] == {client_b.private_name}
    assert not client_a.connected


def test_killed_client_reported_as_disconnect():
    cluster = settle_gcs(build_gcs_cluster(2))
    client_a, _ = make_client(cluster.daemons[0])
    client_b, events_b = make_client(cluster.daemons[1])
    client_a.join("g")
    client_b.join("g")
    cluster.sim.run_for(0.5)
    client_a.kill()
    cluster.sim.run_for(0.3)
    causes = [e[2] for e in events_b if e[0] == "view"]
    assert causes[-1] == "disconnect"


def test_daemon_crash_disconnects_local_clients():
    cluster = settle_gcs(build_gcs_cluster(2))
    client, events = make_client(cluster.daemons[0])
    client.join("g")
    cluster.sim.run_for(0.5)
    cluster.daemons[0].crash()
    cluster.sim.run_for(0.2)
    assert ("disconnect",) in events
    assert not client.connected


def test_daemon_crash_removes_its_clients_from_groups():
    cluster = settle_gcs(build_gcs_cluster(3))
    client_a, _ = make_client(cluster.daemons[0])
    client_b, events_b = make_client(cluster.daemons[1])
    client_a.join("g")
    client_b.join("g")
    cluster.sim.run_for(0.5)
    cluster.faults.crash_host(cluster.hosts[0])
    settle_gcs(cluster)
    assert cluster.daemons[1].groups["g"] == {client_b.private_name}
    view_events = [e for e in events_b if e[0] == "view"]
    assert view_events[-1] == ("view", (client_b.private_name,), "network")


def test_merge_produces_combined_group_view():
    cluster = settle_gcs(build_gcs_cluster(4))
    clients = []
    for daemon in cluster.daemons:
        client, _ = make_client(daemon)
        client.join("g")
        clients.append(client)
    cluster.sim.run_for(0.5)
    partition = cluster.faults.partition(cluster.lan, [cluster.hosts[:2], cluster.hosts[2:]])
    settle_gcs(cluster)
    assert len(cluster.daemons[0].groups["g"]) == 2
    partition.undo()
    settle_gcs(cluster)
    assert len(cluster.daemons[0].groups["g"]) == 4
    reference = sorted(cluster.daemons[0].groups["g"])
    assert all(sorted(d.groups["g"]) == reference for d in cluster.daemons)


def test_connect_to_stopped_daemon_raises():
    cluster = settle_gcs(build_gcs_cluster(2))
    cluster.daemons[0].crash()
    with pytest.raises(SpreadConnectionError):
        cluster.daemons[0].connect("late")


def test_connect_before_start_raises():
    cluster = build_gcs_cluster(1, stagger=10.0)
    with pytest.raises(SpreadConnectionError):
        cluster.daemons[0].connect("early")


def test_duplicate_client_name_rejected():
    cluster = settle_gcs(build_gcs_cluster(1))
    cluster.daemons[0].connect("app")
    with pytest.raises(SpreadConnectionError):
        cluster.daemons[0].connect("app")


def test_operations_on_disconnected_client_raise():
    cluster = settle_gcs(build_gcs_cluster(1))
    client, _ = make_client(cluster.daemons[0])
    client.disconnect()
    with pytest.raises(SpreadConnectionError):
        client.join("g")
    with pytest.raises(SpreadConnectionError):
        client.multicast("g", "x")


def test_group_view_ids_advance_per_event():
    cluster = settle_gcs(build_gcs_cluster(2))
    client_a = cluster.daemons[0].connect("app")
    views = []
    client_a.on_group_view = views.append
    client_a.join("g")
    cluster.sim.run_for(0.2)
    client_b = cluster.daemons[1].connect("app")
    client_b.join("g")
    cluster.sim.run_for(0.2)
    client_b.leave("g")
    cluster.sim.run_for(0.2)
    ids = [view.view_id for view in views]
    assert len(ids) == 3
    assert len(set(ids)) == 3
    assert ids == sorted(ids)


def test_client_counters_and_repr():
    cluster = settle_gcs(build_gcs_cluster(2))
    client_a, _ = make_client(cluster.daemons[0])
    client_b, _ = make_client(cluster.daemons[1])
    client_a.join("g")
    client_b.join("g")
    cluster.sim.run_for(0.3)
    client_a.multicast("g", "x")
    cluster.sim.run_for(0.3)
    assert client_b.messages_received == 1
    assert client_b.views_received >= 1
    assert "connected" in repr(client_b)
    client_b.disconnect()
    assert "disconnected" in repr(client_b)

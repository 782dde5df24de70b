"""Integration tests for the daemon membership protocol."""

from helpers import build_gcs_cluster, settle_gcs

from repro.gcs.config import SpreadConfig
from repro.gcs.membership import OPERATIONAL


def all_views(cluster, live_only=True):
    daemons = [d for d in cluster.daemons if d.alive or not live_only]
    return [(d.daemon_id, d.current_view) for d in daemons]


def assert_single_view(daemons, expected_members):
    views = {d.current_view for d in daemons}
    assert len(views) == 1, "divergent views: {}".format(views)
    view = views.pop()
    assert list(view.members) == sorted(expected_members)
    for daemon in daemons:
        assert daemon.membership.state == OPERATIONAL


def test_cluster_converges_to_single_view():
    cluster = settle_gcs(build_gcs_cluster(5))
    assert_single_view(cluster.daemons, [d.daemon_id for d in cluster.daemons])


def test_singleton_daemon_installs_lone_view():
    cluster = settle_gcs(build_gcs_cluster(1))
    daemon = cluster.daemons[0]
    assert daemon.membership.state == OPERATIONAL
    assert list(daemon.current_view.members) == [daemon.daemon_id]


def test_member_lists_identically_ordered_everywhere():
    cluster = settle_gcs(build_gcs_cluster(6))
    reference = cluster.daemons[0].current_view.members
    assert all(d.current_view.members == reference for d in cluster.daemons)
    assert list(reference) == sorted(reference)


def test_crash_removes_member_within_notification_window():
    cluster = settle_gcs(build_gcs_cluster(4))
    config = cluster.config
    fault_time = cluster.sim.now
    cluster.faults.crash_host(cluster.hosts[3])
    lo, hi = config.notification_window()
    cluster.sim.run_for(hi + 1.0)
    survivors = [d for d in cluster.daemons if d.alive]
    assert_single_view(survivors, [d.daemon_id for d in survivors])
    install = cluster.sim.trace.select(
        category="membership", event="install", since=fault_time
    )[0]
    # Allow the small membership-exchange overhead on top of the window.
    assert lo <= install.time - fault_time <= hi + 0.5


def test_graceful_daemon_leave_reconfigures_without_fd_wait():
    cluster = settle_gcs(build_gcs_cluster(4))
    leave_time = cluster.sim.now
    cluster.daemons[0].shutdown()
    cluster.sim.run_for(cluster.config.discovery_timeout + 1.0)
    survivors = [d for d in cluster.daemons if d.alive]
    assert_single_view(survivors, [d.daemon_id for d in survivors])
    install = cluster.sim.trace.select(
        category="membership", event="install", since=leave_time
    )[0]
    # No fault-detection wait: only the discovery phase.
    assert install.time - leave_time < cluster.config.fault_detection_timeout \
        + cluster.config.discovery_timeout


def test_partition_forms_two_operational_components():
    cluster = settle_gcs(build_gcs_cluster(5))
    side_a = cluster.hosts[:2]
    side_b = cluster.hosts[2:]
    cluster.faults.partition(cluster.lan, [side_a, side_b])
    settle_gcs(cluster)
    daemons_a = cluster.daemons[:2]
    daemons_b = cluster.daemons[2:]
    assert_single_view(daemons_a, [d.daemon_id for d in daemons_a])
    assert_single_view(daemons_b, [d.daemon_id for d in daemons_b])
    assert daemons_a[0].current_view.view_id != daemons_b[0].current_view.view_id


def test_merge_after_heal_restores_single_view():
    cluster = settle_gcs(build_gcs_cluster(5))
    partition = cluster.faults.partition(cluster.lan, [cluster.hosts[:2], cluster.hosts[2:]])
    settle_gcs(cluster)
    partition.undo()
    settle_gcs(cluster)
    assert_single_view(cluster.daemons, [d.daemon_id for d in cluster.daemons])


def test_view_ids_increase_monotonically():
    cluster = settle_gcs(build_gcs_cluster(3))
    first = cluster.daemons[0].current_view.view_id
    cluster.faults.crash_host(cluster.hosts[2])
    settle_gcs(cluster)
    second = cluster.daemons[0].current_view.view_id
    assert first < second


def test_cascading_fault_during_gather_converges():
    cluster = settle_gcs(build_gcs_cluster(5))
    config = cluster.config
    # Crash one host, then another mid-reconfiguration.
    cluster.faults.crash_host(cluster.hosts[4])
    cluster.sim.after(
        config.fault_detection_timeout + config.discovery_timeout / 2.0,
        cluster.faults.crash_host,
        cluster.hosts[3],
    )
    settle_gcs(cluster)
    settle_gcs(cluster)
    survivors = [d for d in cluster.daemons if d.alive]
    assert_single_view(survivors, [d.daemon_id for d in survivors])


def test_rejoin_after_recovery():
    cluster = settle_gcs(build_gcs_cluster(3))
    cluster.faults.crash_host(cluster.hosts[2])
    settle_gcs(cluster)
    cluster.faults.recover_host(cluster.hosts[2])
    # The daemon died with the host; start a fresh one on the host.
    from repro.gcs.daemon import SpreadDaemon

    revived = SpreadDaemon(cluster.hosts[2], cluster.lan, cluster.config,
                           daemon_id="node2-revived")
    revived.start()
    settle_gcs(cluster)
    daemons = [d for d in cluster.daemons[:2]] + [revived]
    assert_single_view(daemons, [d.daemon_id for d in daemons])


def test_nic_down_isolates_daemon_into_singleton():
    cluster = settle_gcs(build_gcs_cluster(4))
    cluster.faults.nic_down(cluster.hosts[0].nics[0])
    settle_gcs(cluster)
    isolated = cluster.daemons[0]
    assert isolated.membership.state == OPERATIONAL
    assert list(isolated.current_view.members) == [isolated.daemon_id]
    others = cluster.daemons[1:]
    assert_single_view(others, [d.daemon_id for d in others])


def test_nic_up_merges_isolated_daemon_back():
    cluster = settle_gcs(build_gcs_cluster(4))
    cluster.faults.nic_down(cluster.hosts[0].nics[0])
    settle_gcs(cluster)
    cluster.faults.nic_up(cluster.hosts[0].nics[0])
    settle_gcs(cluster)
    assert_single_view(cluster.daemons, [d.daemon_id for d in cluster.daemons])


def test_detection_time_respects_default_ratios():
    """With a slower config, the install still lands in the window."""
    config = SpreadConfig.fast(
        fault_detection_timeout=1.0, heartbeat_timeout=0.4, discovery_timeout=1.4
    )
    cluster = settle_gcs(build_gcs_cluster(3, config=config), duration=8.0)
    fault_time = cluster.sim.now
    cluster.faults.crash_host(cluster.hosts[2])
    cluster.sim.run_for(4.0)
    install = cluster.sim.trace.select(
        category="membership", event="install", since=fault_time
    )[0]
    elapsed = install.time - fault_time
    lo, hi = config.notification_window()
    assert lo <= elapsed <= hi + 0.5


def test_double_start_rejected():
    import pytest

    cluster = build_gcs_cluster(1)
    cluster.sim.run_for(1.0)
    with pytest.raises(RuntimeError):
        cluster.daemons[0].start()


def test_triggered_gather_on_a_lossy_lan_still_finds_every_daemon():
    # A JOIN stops once echoed; a peer that missed one keeps naming another
    # set, which calls the silent daemon back, so no member goes unheard.
    cluster = settle_gcs(build_gcs_cluster(8, seed=3))
    cluster.lan.loss = 0.2
    since = cluster.sim.now
    cluster.daemons[0].membership.trigger_gather("test")
    cluster.sim.run_for(cluster.config.discovery_timeout * 3)
    forms = cluster.sim.trace.select(category="membership", event="form", since=since)
    assert forms
    assert all(len(form.details["members"]) == 8 for form in forms)
    cluster.lan.loss = 0.0
    settle_gcs(cluster)
    assert_single_view(cluster.daemons, [d.daemon_id for d in cluster.daemons])

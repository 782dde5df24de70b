"""Integration tests for the Wackamole daemon (Algorithms 1-3)."""

from helpers import build_wack_cluster, settle_wack

from repro.core.state import GATHER, RUN


def test_boot_reaches_run_with_full_coverage():
    cluster = build_wack_cluster(3)
    assert settle_wack(cluster)
    for wack in cluster.wacks:
        assert wack.machine.state == RUN
        assert wack.table.is_complete()
    assert cluster.auditor.check() == []


def test_every_vip_covered_exactly_once_at_boot():
    cluster = build_wack_cluster(4, n_vips=8)
    assert settle_wack(cluster)
    for vip in cluster.wconfig.slot_ids():
        owners = [w.host.name for w in cluster.wacks if w.iface.owns(vip)]
        assert len(owners) == 1, "vip {} covered by {}".format(vip, owners)


def test_allocation_spread_evenly_at_boot():
    cluster = build_wack_cluster(3, n_vips=6)
    assert settle_wack(cluster)
    counts = sorted(len(w.iface.owned_slots()) for w in cluster.wacks)
    assert counts == [2, 2, 2]


def test_tables_identical_across_members():
    cluster = build_wack_cluster(4)
    assert settle_wack(cluster)
    reference = cluster.wacks[0].table.as_dict()
    assert all(w.table.as_dict() == reference for w in cluster.wacks)


def test_crash_reallocates_victims_vips():
    cluster = build_wack_cluster(3, n_vips=6)
    assert settle_wack(cluster)
    victim = cluster.wacks[0]
    lost = set(victim.iface.owned_slots())
    assert lost
    cluster.faults.crash_host(victim.host)
    assert settle_wack(cluster)
    survivors = cluster.wacks[1:]
    for vip in lost:
        owners = [w.host.name for w in survivors if w.iface.owns(vip)]
        assert len(owners) == 1
    assert cluster.auditor.check() == []


def test_last_server_covers_everything():
    cluster = build_wack_cluster(3, n_vips=5)
    assert settle_wack(cluster)
    cluster.faults.crash_host(cluster.hosts[0].nics[0].host)
    cluster.faults.crash_host(cluster.hosts[1])
    assert settle_wack(cluster)
    survivor = cluster.wacks[2]
    assert len(survivor.iface.owned_slots()) == 5


def test_partition_both_sides_cover_full_set():
    cluster = build_wack_cluster(4, n_vips=6)
    assert settle_wack(cluster)
    cluster.faults.partition(cluster.lan, [cluster.hosts[:2], cluster.hosts[2:]])
    assert settle_wack(cluster)
    for side in (cluster.wacks[:2], cluster.wacks[2:]):
        for vip in cluster.wconfig.slot_ids():
            owners = [w for w in side if w.iface.owns(vip)]
            assert len(owners) == 1
    assert cluster.auditor.check() == []


def test_merge_resolves_all_conflicts():
    cluster = build_wack_cluster(4, n_vips=6)
    assert settle_wack(cluster)
    partition = cluster.faults.partition(cluster.lan, [cluster.hosts[:2], cluster.hosts[2:]])
    assert settle_wack(cluster)
    partition.undo()
    assert settle_wack(cluster)
    for vip in cluster.wconfig.slot_ids():
        owners = [w for w in cluster.wacks if w.iface.owns(vip)]
        assert len(owners) == 1
    assert sum(w.conflicts_dropped for w in cluster.wacks) > 0
    assert cluster.auditor.check() == []


def test_conflict_loser_is_earlier_member():
    cluster = build_wack_cluster(2, n_vips=4)
    assert settle_wack(cluster)
    partition = cluster.faults.partition(cluster.lan, [[cluster.hosts[0]], [cluster.hosts[1]]])
    assert settle_wack(cluster)
    partition.undo()
    assert settle_wack(cluster)
    # node0 sorts first -> it must have released the contested slots.
    conflict_records = cluster.sim.trace.select(category="wackamole", event="conflict")
    assert conflict_records
    for record in conflict_records:
        assert record.details["loser"] < record.details["winner"]


def test_state_msgs_from_other_views_ignored():
    cluster = build_wack_cluster(3)
    assert settle_wack(cluster)
    wack = cluster.wacks[0]
    from repro.core.messages import StateMsg

    stale = StateMsg("wack@node1", ("bogus", "view", 0), ("10.0.0.100",), (), True)
    before = wack.table.as_dict()
    wack._on_state_msg(stale)
    assert wack.table.as_dict() == before


def test_nic_down_isolated_daemon_covers_all_in_its_component():
    cluster = build_wack_cluster(3, n_vips=4)
    assert settle_wack(cluster)
    cluster.faults.nic_down(cluster.hosts[0].nics[0])
    assert settle_wack(cluster)
    isolated = cluster.wacks[0]
    # Property 1 is per connected component: the singleton covers all.
    assert len(isolated.iface.owned_slots()) == 4
    for vip in cluster.wconfig.slot_ids():
        owners = [w for w in cluster.wacks[1:] if w.iface.owns(vip)]
        assert len(owners) == 1


def test_gcs_disconnect_drops_all_vips_and_reconnects():
    cluster = build_wack_cluster(3, n_vips=6)
    assert settle_wack(cluster)
    wack = cluster.wacks[0]
    assert wack.iface.owned_slots()
    # Kill only the GCS daemon; the host (and Wackamole) stay up.
    cluster.spreads[0].crash()
    cluster.sim.run_for(0.2)
    assert wack.iface.owned_slots() == ()
    assert wack.client is None
    # A replacement GCS daemon comes up; Wackamole reconnects by itself.
    from repro.gcs.daemon import SpreadDaemon

    replacement = SpreadDaemon(
        cluster.hosts[0], cluster.lan, cluster.config, daemon_id="node0b"
    )
    replacement.start()
    cluster.sim.run_for(wack.config.profile.reconnect_interval * 3)
    assert settle_wack(cluster)
    assert wack.client is not None and wack.client.connected
    assert cluster.auditor.check() == []


def test_graceful_shutdown_releases_before_leaving():
    cluster = build_wack_cluster(3, n_vips=6)
    assert settle_wack(cluster)
    victim = cluster.wacks[0]
    owned = set(victim.iface.owned_slots())
    installs_before = cluster.spreads[1].membership.views_installed
    victim.shutdown()
    cluster.sim.run_for(0.5)
    # No address is double-bound at any point, and the leave was
    # lightweight (no daemon-level reconfiguration).
    assert victim.iface.owned_slots() == ()
    assert cluster.spreads[1].membership.views_installed == installs_before
    assert settle_wack(cluster)
    for vip in owned:
        owners = [w for w in cluster.wacks[1:] if w.iface.owns(vip)]
        assert len(owners) == 1


def test_status_snapshot_fields():
    cluster = build_wack_cluster(2)
    assert settle_wack(cluster)
    status = cluster.wacks[0].status()
    assert status["state"] == RUN
    assert status["mature"] is True
    assert status["connected"] is True
    assert len(status["members"]) == 2
    assert set(status["table"]) == set(cluster.wconfig.slot_ids())


def test_view_change_enters_gather_and_backs_up_table():
    cluster = build_wack_cluster(3)
    assert settle_wack(cluster)
    wack = cluster.wacks[1]
    before = wack.table.as_dict()
    history_len = len(wack.machine.history)
    cluster.faults.crash_host(cluster.hosts[0])
    assert settle_wack(cluster)
    # The daemon passed through GATHER (RUN -> GATHER -> RUN) and
    # backed up the pre-change table.
    new_transitions = wack.machine.history[history_len:]
    assert (RUN, "VIEW_CHANGE", GATHER) in new_transitions
    assert (GATHER, "REALLOCATION_COMPLETE", RUN) in new_transitions
    assert wack.old_table.as_dict() == before

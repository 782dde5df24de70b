"""Tests for the §4.2 representative-allocation variant.

"The way Wackamole handles network failures can be modified, such that
all decisions are made by a deterministically chosen representative
and imposed upon the other daemons, rather than made independently by
each daemon through a deterministic decision process."
"""

from helpers import build_wack_cluster, settle_wack

from repro.core.state import RUN

REP_OVERRIDES = {"representative_allocation": True, "maturity_timeout": 0.5}


def test_boot_covers_every_vip_exactly_once():
    cluster = build_wack_cluster(3, n_vips=6, wack_overrides=REP_OVERRIDES)
    assert settle_wack(cluster)
    for vip in cluster.wconfig.slot_ids():
        owners = [w for w in cluster.wacks if w.iface.owns(vip)]
        assert len(owners) == 1
    assert cluster.auditor.check() == []


def test_crash_reallocation_still_works():
    cluster = build_wack_cluster(3, n_vips=6, wack_overrides=REP_OVERRIDES)
    assert settle_wack(cluster)
    cluster.faults.crash_host(cluster.hosts[0])
    assert settle_wack(cluster)
    assert cluster.auditor.check() == []
    assert all(w.machine.state == RUN for w in cluster.wacks if w.alive)


def test_representative_crash_mid_epoch_recovers():
    cluster = build_wack_cluster(3, n_vips=6, wack_overrides=REP_OVERRIDES)
    assert settle_wack(cluster)
    # The representative is the first member of the sorted list: node0.
    rep = cluster.wacks[0]
    assert rep.member_name == rep.view.members[0]
    cluster.faults.crash_host(rep.host)
    assert settle_wack(cluster)
    assert cluster.auditor.check() == []


def test_partition_and_merge():
    cluster = build_wack_cluster(4, n_vips=8, wack_overrides=REP_OVERRIDES)
    assert settle_wack(cluster)
    partition = cluster.faults.partition(cluster.lan, [cluster.hosts[:2], cluster.hosts[2:]])
    assert settle_wack(cluster)
    for side in (cluster.wacks[:2], cluster.wacks[2:]):
        for vip in cluster.wconfig.slot_ids():
            assert len([w for w in side if w.iface.owns(vip)]) == 1
    partition.undo()
    assert settle_wack(cluster)
    assert cluster.auditor.check() == []


def test_allocation_identical_to_distributed_mode():
    """Both decision styles must produce the same allocation (the
    representative runs the same deterministic procedure)."""
    rep_cluster = build_wack_cluster(3, n_vips=6, wack_overrides=REP_OVERRIDES)
    assert settle_wack(rep_cluster)
    dist_cluster = build_wack_cluster(
        3, n_vips=6, wack_overrides={"maturity_timeout": 0.5}
    )
    assert settle_wack(dist_cluster)
    assert (
        rep_cluster.wacks[0].table.as_dict() == dist_cluster.wacks[0].table.as_dict()
    )


def test_non_representatives_never_compute_allocations():
    cluster = build_wack_cluster(3, n_vips=6, wack_overrides=REP_OVERRIDES)
    assert settle_wack(cluster)
    cluster.faults.crash_host(cluster.hosts[2])
    assert settle_wack(cluster)
    # Every member applies the same number of imposed allocations; the
    # reallocations counter counts AllocMsg applications only.
    live = [w for w in cluster.wacks if w.alive]
    assert len({w.reallocations for w in live}) == 1


def test_maturity_timeout_path_uses_representative():
    cluster = build_wack_cluster(
        2, n_vips=4, wack_overrides=dict(REP_OVERRIDES, maturity_timeout=1.0)
    )
    assert settle_wack(cluster)
    for vip in cluster.wconfig.slot_ids():
        assert len([w for w in cluster.wacks if w.iface.owns(vip)]) == 1

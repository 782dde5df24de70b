"""Scripted scenarios: one per state-corruption kind (docs/FAULTS.md).

Where the ``repro check --corrupt`` campaigns explore randomized mixes,
these are the deterministic textbook episodes — each corruption kind
demonstrated once, at a fixed seed, against a self-stabilizing cluster
that detects the corrupted state through its periodic audits and
repairs it through the ordinary protocol paths. They double as
executable documentation for the repertoire.
"""

from helpers import build_wack_cluster, settle_wack


def build_stabilizing_cluster(n=3, seed=7, n_vips=6):
    """The gray-hardened shape plus periodic self-stabilization audits."""
    return build_wack_cluster(n, seed=seed, n_vips=n_vips, profile="stabilizing")


def owners_of(cluster, address):
    return [h.name for h in cluster.hosts if h.alive and h.owns_ip(address)]


def assert_single_owner_coverage(cluster):
    assert cluster.auditor.check() == []
    for group in cluster.wconfig.vip_groups:
        for address in group.addresses:
            owners = owners_of(cluster, address)
            assert len(owners) == 1, "{} owned by {}".format(address, owners)


def held_slots(cluster, index):
    wack = cluster.wacks[index]
    return [
        slot
        for slot in wack.table.slots
        if wack.table.owner(slot) == wack.member_name and wack.iface.owns(slot)
    ]


# ----------------------------------------------------------------------
# corrupt_vip_table: allocation/binding divergence, audited locally


def test_dropped_binding_is_reacquired_by_audit():
    """``drop`` unbinds a held VIP behind the agreed table's back; the
    next audit tick notices table-says-mine/iface-says-no and re-acquires."""
    cluster = build_stabilizing_cluster(seed=11)
    assert settle_wack(cluster, timeout=30.0)
    victim = cluster.wacks[0]
    before = held_slots(cluster, 0)
    assert before
    cluster.faults.corrupt_vip_table(victim, mutation="drop")
    lost = [slot for slot in before if not victim.iface.owns(slot)]
    assert len(lost) == 1  # the corruption really opened a coverage hole
    cluster.sim.run_for(2.0)
    assert victim.stabilize_repairs >= 1
    assert victim.iface.owns(lost[0])
    assert settle_wack(cluster, timeout=20.0)
    assert_single_owner_coverage(cluster)
    record = cluster.faults.log[-1]
    assert record.kind == "corrupt_vip_table"
    assert record.to_dict()["param"] == {"mutation": "drop", "slot": lost[0]}


def test_foreign_binding_is_released_by_audit():
    """``duplicate`` force-binds a peer's VIP (two physical owners); the
    audit releases the binding the table never granted."""
    cluster = build_stabilizing_cluster(seed=13)
    assert settle_wack(cluster, timeout=30.0)
    victim = cluster.wacks[0]
    cluster.faults.corrupt_vip_table(victim, mutation="duplicate")
    stolen = [
        slot
        for slot in victim.table.slots
        if victim.table.owner(slot) != victim.member_name and victim.iface.owns(slot)
    ]
    assert len(stolen) == 1
    address = cluster.wconfig.group(stolen[0]).addresses[0]
    assert len(owners_of(cluster, address)) == 2  # the gray symptom
    cluster.sim.run_for(2.0)
    assert victim.stabilize_repairs >= 1
    assert not victim.iface.owns(stolen[0])
    assert settle_wack(cluster, timeout=20.0)
    assert_single_owner_coverage(cluster)


def test_poisoned_arp_entry_is_overwritten_by_reannouncement():
    """``poison_arp`` plants a bogus MAC in a host's cache; the owner's
    periodic gratuitous re-announcement overwrites it within one cycle."""
    cluster = build_stabilizing_cluster(seed=17)
    assert settle_wack(cluster, timeout=30.0)
    victim = cluster.wacks[0]
    cluster.faults.corrupt_vip_table(victim, mutation="poison_arp")
    record = cluster.faults.log[-1]
    assert record.to_dict()["param"]["mutation"] == "poison_arp"
    address = cluster.wconfig.group(record.param["slot"]).addresses[0]
    poisoned = victim.host.arp.cache.lookup(address)
    assert poisoned is not None and str(poisoned) == record.param["mac"]
    # One re-announce interval (2.0s in the stabilizing row) + slack.
    cluster.sim.run_for(cluster.wconfig.profile.arp_reannounce_interval + 1.0)
    owner = next(h for h in cluster.hosts if h.owns_ip(address))
    healed = victim.host.arp.cache.lookup(address)
    assert healed == owner.nics[0].mac


# ----------------------------------------------------------------------
# corrupt_membership: view-list corruption, escalated to a gather


def test_phantom_member_escalates_to_gather_and_reconverges():
    """A spliced-in ghost member is watched by nobody, so only the
    stabilization audit can notice the view/detector disagreement; it
    escalates to a GATHER and the next install has only real members."""
    cluster = build_stabilizing_cluster(seed=19)
    assert settle_wack(cluster, timeout=30.0)
    daemon = cluster.spreads[0]
    installs_before = daemon.membership.views_installed
    cluster.faults.corrupt_membership(daemon, mutation="phantom")
    assert any(m.startswith("ghost-") for m in daemon.membership.view.members)
    cluster.sim.run_for(4.0)
    assert daemon.stabilize_repairs >= 1
    assert daemon.membership.views_installed > installs_before
    assert not any(m.startswith("ghost-") for m in daemon.membership.view.members)
    assert settle_wack(cluster, timeout=20.0)
    assert_single_owner_coverage(cluster)


def test_dropped_member_reappears_after_reconfiguration():
    """Erasing a live member from one daemon's view self-heals: either
    the victim's own heartbeats look foreign (on_foreign_traffic) or the
    audit sees the view/detector disagreement — both end in a gather."""
    cluster = build_stabilizing_cluster(seed=23)
    assert settle_wack(cluster, timeout=30.0)
    daemon = cluster.spreads[0]
    full = set(daemon.membership.view.members)
    cluster.faults.corrupt_membership(daemon, mutation="drop")
    assert set(daemon.membership.view.members) < full
    cluster.sim.run_for(6.0)
    assert set(daemon.membership.view.members) == full
    assert settle_wack(cluster, timeout=20.0)
    assert_single_owner_coverage(cluster)


# ----------------------------------------------------------------------
# corrupt_sequence: ordering counters re-derived from the log


def test_delivery_point_ahead_of_the_log_escalates_to_a_view_change():
    """A delivery point past the log's contiguous prefix cannot be
    rolled back without redelivering, so the audit escalates it to a
    gather, whose install hands the daemon a fresh orderer."""
    cluster = build_stabilizing_cluster(seed=29)
    assert settle_wack(cluster, timeout=30.0)
    daemon = cluster.spreads[0]
    corrupted = daemon.orderer
    assert corrupted is not None and not corrupted.frozen
    cluster.faults.corrupt_sequence(daemon, mutation="delivered_ahead")
    assert corrupted.delivered_aru > max(corrupted.log, default=0)  # the corruption took
    cluster.sim.run_for(2.0)
    assert daemon.stabilize_repairs >= 1
    assert daemon.orderer is not corrupted
    assert daemon.orderer.view_id > corrupted.view_id
    assert settle_wack(cluster, timeout=20.0)
    assert_single_owner_coverage(cluster)


def test_regressed_sequencer_assignment_never_collides():
    """Rewinding the sequencer's next assignment under already-assigned
    sequences must not mint a duplicate: the audit clamps it past the
    log top (and the assignment path itself skips occupied slots)."""
    cluster = build_stabilizing_cluster(seed=31)
    assert settle_wack(cluster, timeout=30.0)
    sequencer = next(
        d for d in cluster.spreads if d.orderer is not None and d.orderer.is_sequencer
    )
    cluster.faults.corrupt_sequence(sequencer, mutation="assign_regress")
    cluster.sim.run_for(2.0)
    fresh = sequencer.orderer
    if fresh is not None and fresh.log:
        assert fresh._next_assign > max(fresh.log)
    assert settle_wack(cluster, timeout=20.0)
    assert_single_owner_coverage(cluster)


# ----------------------------------------------------------------------
# corrupt_epoch: counter regression clamped back by the audit


def test_regressed_view_counter_is_clamped_by_audit():
    """Rewinding ``highest_counter`` below the installed view would make
    the next gather mint a ViewId every peer rejects; the audit clamps
    it back to the installed view's counter before that can happen."""
    cluster = build_stabilizing_cluster(seed=37)
    assert settle_wack(cluster, timeout=30.0)
    daemon = cluster.spreads[0]
    engine = daemon.membership
    floor = engine.view.view_id.counter
    cluster.faults.corrupt_epoch(daemon)
    assert engine.highest_counter < floor  # the regression took
    cluster.sim.run_for(2.0)
    assert engine.highest_counter >= engine.view.view_id.counter
    assert daemon.stabilize_repairs >= 1
    # The repaired daemon can still drive a reconfiguration peers accept.
    cluster.faults.crash_host(cluster.hosts[2])
    assert settle_wack(cluster, timeout=30.0)
    assert_single_owner_coverage(cluster)

"""Unit tests for the coverage auditor itself (it must catch bugs)."""

from helpers import build_wack_cluster, settle_wack


def test_clean_cluster_has_no_violations():
    cluster = build_wack_cluster(3)
    assert settle_wack(cluster)
    assert cluster.auditor.check() == []


def test_detects_artificial_duplicate_coverage():
    cluster = build_wack_cluster(3, n_vips=3)
    assert settle_wack(cluster)
    # Bind a VIP on a second host behind the protocol's back.
    vip = cluster.wconfig.slot_ids()[0]
    holders = [w for w in cluster.wacks if w.iface.owns(vip)]
    other = next(w for w in cluster.wacks if w not in holders)
    other.host.nics[0].bind_ip(vip)
    violations = cluster.auditor.check()
    assert any(v.kind == "duplicate" and v.slot == vip for v in violations)


def test_detects_artificial_hole():
    cluster = build_wack_cluster(3, n_vips=3)
    assert settle_wack(cluster)
    vip = cluster.wconfig.slot_ids()[0]
    holder = next(w for w in cluster.wacks if w.iface.owns(vip))
    holder.host.nics[0].unbind_ip(vip)
    violations = cluster.auditor.check()
    assert any(v.kind == "uncovered" and v.slot == vip for v in violations)


def test_components_follow_partitions():
    cluster = build_wack_cluster(4)
    assert settle_wack(cluster)
    assert len(cluster.auditor.components()) == 1
    cluster.faults.partition(cluster.lan, [cluster.hosts[:1], cluster.hosts[1:]])
    components = sorted(len(c) for c in cluster.auditor.components())
    assert components == [1, 3]


def test_dead_daemons_excluded_from_components():
    cluster = build_wack_cluster(3)
    assert settle_wack(cluster)
    cluster.faults.crash_host(cluster.hosts[0])
    assert sorted(len(c) for c in cluster.auditor.components()) == [2]


def test_assert_ok_raises_with_details():
    import pytest

    cluster = build_wack_cluster(2, n_vips=2)
    assert settle_wack(cluster)
    vip = cluster.wconfig.slot_ids()[0]
    holder = next(w for w in cluster.wacks if w.iface.owns(vip))
    holder.host.nics[0].unbind_ip(vip)
    with pytest.raises(AssertionError):
        cluster.auditor.assert_ok()


def test_duplicate_coverage_helper():
    cluster = build_wack_cluster(2, n_vips=2)
    assert settle_wack(cluster)
    vip = cluster.wconfig.slot_ids()[0]
    for wack in cluster.wacks:
        wack.host.nics[0].bind_ip(vip)
    # The audit's pool-wide reading counts it once, whoever else holds what.
    violations, slots, covered, duplicated, run = cluster.auditor.audit()
    assert (slots, covered, duplicated, run) == (2, 2, 1, 2)
    (violation,) = violations
    assert violation.slot == vip and len(violation.covering) == 2


def test_zero_live_daemons_yields_no_components_or_violations():
    cluster = build_wack_cluster(3)
    assert settle_wack(cluster)
    for host in cluster.hosts:
        cluster.faults.crash_host(host)
    assert cluster.auditor.components() == []
    # No components -> nothing to audit; a dead cluster is not a
    # Property 1 violation (there is no RUN component to cover VIPs).
    assert cluster.auditor.check() == []
    assert cluster.auditor.check_by_view() == []
    assert cluster.auditor.audit()[2:] == (0, 0, 0)


def test_fully_partitioned_singletons_each_cover_everything():
    cluster = build_wack_cluster(3, n_vips=4)
    assert settle_wack(cluster)
    cluster.faults.partition(cluster.lan, [[h] for h in cluster.hosts])
    components = cluster.auditor.components()
    assert sorted(len(c) for c in components) == [1, 1, 1]
    # After stabilization every singleton component must have taken
    # over the complete VIP set itself — audited per component.
    cluster.sim.run_for(10.0)
    assert cluster.auditor.check() == []
    for component in cluster.auditor.components():
        daemon = component[0]
        assert all(
            daemon.host.owns_ip(a)
            for slot in cluster.wconfig.slot_ids()
            for a in daemon.config.group(slot).addresses
        )


def test_double_coverage_inside_one_partition_component():
    cluster = build_wack_cluster(4, n_vips=4)
    assert settle_wack(cluster)
    cluster.faults.partition(cluster.lan, [cluster.hosts[:2]])
    cluster.sim.run_for(10.0)
    assert cluster.auditor.check() == []
    vip = cluster.wconfig.slot_ids()[0]
    # Bind the same VIP on both members of the two-server component.
    for wack in cluster.wacks[:2]:
        wack.host.nics[0].bind_ip(vip)
    violations = [v for v in cluster.auditor.check() if v.kind == "duplicate"]
    assert len(violations) == 1
    assert set(violations[0].covering) == {"node0", "node1"}
    # The other component is untouched and must not be reported.
    assert all(set(v.component) <= {"node0", "node1"} for v in violations)


def test_vip_covered_in_one_component_but_not_another():
    cluster = build_wack_cluster(4, n_vips=4)
    assert settle_wack(cluster)
    cluster.faults.partition(cluster.lan, [cluster.hosts[:1]])
    cluster.sim.run_for(10.0)
    assert cluster.auditor.check() == []
    vip = cluster.wconfig.slot_ids()[0]
    # Poke a hole in the three-server component only; the singleton
    # still covers the VIP, which must not mask the other side's hole.
    trio = [w for w in cluster.wacks[1:] if w.iface.owns(vip)]
    assert trio
    trio[0].host.nics[0].unbind_ip(vip)
    violations = cluster.auditor.check()
    uncovered = [v for v in violations if v.kind == "uncovered" and v.slot == vip]
    assert len(uncovered) == 1
    assert set(uncovered[0].component) == {"node1", "node2", "node3"}


def test_check_by_view_skips_physically_stale_views():
    """Regression for a repro.check campaign finding.

    Inside the failure-detection window after an interface drop, every
    daemon still has the old view installed, and the disconnected
    member can (via a locally delivered BALANCE) bind addresses that
    others hold. That transient duplicate is inherent §4.2 behaviour,
    so the view-relative oracle must skip views that are no longer
    physically intact — and still report duplicates in healthy views.
    """
    cluster = build_wack_cluster(3, n_vips=3)
    assert settle_wack(cluster)
    vip = cluster.wconfig.slot_ids()[0]
    victim = next(w for w in cluster.wacks if not w.iface.owns(vip))
    cluster.faults.nic_down(victim.host.nics[0])
    # No simulated time passes: all three daemons still share the old
    # view, alive + RUN + mature, but the victim is dark.
    victim.host.nics[0].bind_ip(vip)
    assert cluster.auditor.check_by_view() == []
    # The same duplicate inside a physically intact view IS a bug.
    cluster.faults.nic_up(victim.host.nics[0])
    violations = cluster.auditor.check_by_view()
    assert any(v.kind == "duplicate" and v.slot == vip for v in violations)


def test_components_are_deterministically_ordered():
    cluster = build_wack_cluster(4)
    assert settle_wack(cluster)
    cluster.faults.partition(cluster.lan, [cluster.hosts[2:]])
    first = [[d.host.name for d in c] for c in cluster.auditor.components()]
    second = [[d.host.name for d in c] for c in cluster.auditor.components()]
    assert first == second
    # Host-name order within and across components (replay relies on it).
    assert first == [["node0", "node1"], ["node2", "node3"]]


def test_gathering_components_not_audited():
    cluster = build_wack_cluster(3)
    assert settle_wack(cluster)
    # Freeze one daemon in GATHER artificially; auditor must skip the
    # component rather than report spurious violations.
    cluster.wacks[0].machine.fire("VIEW_CHANGE")
    assert cluster.auditor.check() == []


# ----------------------------------------------------------------------
# the coverage engine: exact intervals, one audit per changed instant


def _engine_cluster():
    from repro.core.audit import CoverageEngine

    cluster = build_wack_cluster(3, n_vips=3)
    assert settle_wack(cluster)
    vip = cluster.wconfig.slot_ids()[0]
    holder = next(w for w in cluster.wacks if w.iface.owns(vip))
    other = next(w for w in cluster.wacks if not w.iface.owns(vip))
    engine = CoverageEngine(cluster.sim, cluster.auditor.audit)
    return cluster, engine, vip, holder.host.nics[0], other.host.nics[0]


def test_same_instant_handoff_is_no_interval():
    cluster, engine, vip, holder, other = _engine_cluster()
    events_before = cluster.sim.scheduler.events_fired
    t = cluster.sim.now + 0.5
    cluster.sim.at(t, holder.unbind_ip, vip)
    cluster.sim.at(t, other.bind_ip, vip)
    cluster.sim.run_for(1.0)
    engine.finish()
    assert engine.intervals == []
    # The engine scheduled nothing of its own.
    assert cluster.sim.scheduler.events_fired - events_before >= 2
    assert cluster.sim.coverage is None


def test_release_then_acquire_is_one_exact_uncovered_interval():
    cluster, engine, vip, holder, other = _engine_cluster()
    t = cluster.sim.now + 0.5
    delta = 0.0003
    cluster.sim.at(t, holder.unbind_ip, vip)
    cluster.sim.at(t + delta, other.bind_ip, vip)
    cluster.sim.run_for(1.0)
    engine.finish()
    (interval,) = engine.intervals
    assert interval.kind == "uncovered"
    assert interval.slot == vip
    assert (interval.start, interval.end) == (t, t + delta)
    # Nothing excuses a hole the protocol did not make.
    assert engine.failures() == [interval]
    assert engine.coverage_gap_s == interval.length


def test_overlapping_bind_is_one_duplicate_interval():
    cluster, engine, vip, holder, other = _engine_cluster()
    t = cluster.sim.now + 0.5
    cluster.sim.at(t, other.bind_ip, vip)
    cluster.sim.at(t + 0.25, holder.unbind_ip, vip)
    cluster.sim.run_for(1.0)
    engine.finish()
    (interval,) = engine.intervals
    assert interval.kind == "duplicate"
    assert sorted(interval.covering) == sorted(
        [holder.host.name, other.host.name]
    )
    assert (interval.start, interval.end) == (t, t + 0.25)


def test_grace_excuses_shorter_intervals_only():
    from repro.core.audit import CoverageEngine

    cluster = build_wack_cluster(2, n_vips=2)
    assert settle_wack(cluster)
    vip = cluster.wconfig.slot_ids()[0]
    nic = next(w for w in cluster.wacks if w.iface.owns(vip)).host.nics[0]
    engine = CoverageEngine(cluster.sim, cluster.auditor.audit, grace=0.5)
    t = cluster.sim.now + 0.1
    cluster.sim.at(t, nic.unbind_ip, vip)
    cluster.sim.at(t + 0.2, nic.bind_ip, vip)
    cluster.sim.at(t + 1.0, nic.unbind_ip, vip)
    cluster.sim.at(t + 1.5, nic.bind_ip, vip)
    cluster.sim.run_for(2.0)
    engine.finish()
    short, long = engine.intervals
    assert short.excuse == "grace"
    assert long.excuse is None
    assert engine.summary()["excused"] == {"grace": 1}


def test_scale_path_counts_owners_through_lan_binders():
    from repro.apps.scalecluster import ScaleClusterScenario

    scenario = ScaleClusterScenario(seed=3, n_hosts=8, n_vips=16, segment_size=4).start()
    assert scenario.settle()
    engine = scenario.watch_coverage()
    lan = scenario.lan
    vip = scenario.vips[0]
    (owner,) = [nic for nic in lan.nics if nic.owns_ip(vip)]
    intruder = next(nic for nic in lan.nics if nic is not owner)
    victim = next(nic for nic in lan.nics if nic not in (owner, intruder))
    t = scenario.sim.now + 0.25
    scenario.sim.at(t, intruder.bind_ip, vip)
    scenario.sim.at(t + 0.25, intruder.unbind_ip, vip)
    # A crashed host's stale binding is no owner.
    scenario.sim.at(t + 0.5, victim.host.crash)
    scenario.sim.at(t + 0.5, victim.bind_ip, vip)
    scenario.sim.run_for(1.0)
    engine.finish()
    (interval,) = engine.intervals
    assert interval.kind == "duplicate"
    assert set(interval.covering) == {owner.host.name, intruder.host.name}
    assert (interval.start, interval.end) == (t, t + 0.25)


def test_a_view_is_complete_when_its_holders_are_its_members_not_as_many():
    """Seed 28's revived nodes adopt their segment's view before it names
    them, while a member of that view has moved on to the next. Counted,
    such a view looks complete, and the slots of the member that moved
    on look uncovered; by name it is incomplete and no one is judged."""
    from repro.apps.scalecluster import ScaleClusterScenario
    from repro.check.schedule import scale_schedule
    from repro.core.audit import CoverageEngine

    scenario = ScaleClusterScenario(seed=28, n_hosts=32, n_vips=128, segment_size=8).start()
    assert scenario.settle()
    schedule = scale_schedule(28, 32, 8, 3)
    scenario.apply_schedule(schedule, scenario.sim.now)
    miscounted = []

    def audit():
        holders = {}
        for manager in scenario.managers:
            if manager.alive and manager.view is not None:
                holders.setdefault(manager.view, set()).add(manager.member_name)
        miscounted.extend(view for view, names in holders.items()
                          if len(names) == len(view.members) and names != set(view.members))
        return scenario.auditor.audit()

    engine = CoverageEngine(scenario.sim, audit)
    scenario.sim.run_for(schedule.tail_time() + 10.0)
    engine.finish()
    assert miscounted
    assert engine.intervals == []

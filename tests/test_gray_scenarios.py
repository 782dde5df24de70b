"""Scripted scenarios: one per gray fault kind (docs/FAULTS.md).

Where the repro.check gray campaigns explore randomized schedules,
these are the deterministic textbook episodes — each new fault kind
demonstrated once, at a fixed seed, with the cluster returning to
exact single-owner VIP coverage at the end. They double as executable
documentation for the repertoire.
"""

from helpers import build_wack_cluster, settle_wack

from repro.net.linkfault import GilbertElliott


def build_gray_cluster(n=3, seed=7, n_vips=6, profile="hardened"):
    """The cluster the gray check harness runs: the hardened row."""
    return build_wack_cluster(n, seed=seed, n_vips=n_vips, profile=profile)


def owners_of(cluster, address):
    return [h.name for h in cluster.hosts if h.alive and h.owns_ip(address)]


def assert_single_owner_coverage(cluster):
    """Every VIP bound by exactly one live host, and the auditor agrees."""
    assert cluster.auditor.check() == []
    for group in cluster.wconfig.vip_groups:
        for address in group.addresses:
            owners = owners_of(cluster, address)
            assert len(owners) == 1, "{} owned by {}".format(address, owners)


# ----------------------------------------------------------------------
# asymmetric partition: duplicate VIPs, then wire-level resolution


def test_asym_partition_creates_then_resolves_duplicate_vips():
    """A deaf host's VIPs get re-acquired by its peers (two owners),
    and the heal plus conflict resolution returns every VIP to one."""
    cluster = build_gray_cluster(seed=11)
    assert settle_wack(cluster, timeout=30.0)
    deaf = cluster.hosts[0]
    held_before = [
        address
        for group in cluster.wconfig.vip_groups
        for address in group.addresses
        if deaf.owns_ip(address)
    ]
    assert held_before  # the allocation gave the victim something to lose
    fault = cluster.faults.asym_partition(cluster.lan, [deaf])
    cluster.sim.run_for(4.0)
    # The gray symptom: the deaf host still binds its addresses while
    # the majority, having suspected it, re-acquired them.
    assert any(len(owners_of(cluster, a)) >= 2 for a in held_before)
    fault.undo()
    assert settle_wack(cluster, timeout=40.0)
    assert_single_owner_coverage(cluster)


# ----------------------------------------------------------------------
# burst loss: fail-over through a Gilbert-Elliott channel


def test_failover_completes_under_burst_loss():
    """A crash mid-burst-loss still fails over; coverage is exact once
    the channel clears (retried/periodic announces repair the caches)."""
    cluster = build_gray_cluster(seed=13)
    assert settle_wack(cluster, timeout=30.0)
    fault = cluster.faults.burst_loss_on(
        cluster.lan, GilbertElliott(loss_good=0.0, loss_bad=0.8)
    )
    cluster.faults.crash_host(cluster.hosts[2])
    cluster.sim.run_for(8.0)
    fault.undo()
    assert settle_wack(cluster, timeout=40.0)
    assert_single_owner_coverage(cluster)
    assert cluster.lan.link_model is None


# ----------------------------------------------------------------------
# duplication + reordering: protocol correctness is delivery-order-proof


def test_failover_with_frame_duplication_and_reordering():
    cluster = build_gray_cluster(seed=17)
    assert settle_wack(cluster, timeout=30.0)
    cluster.faults.set_duplication(cluster.lan, 0.3)
    cluster.faults.set_reordering(cluster.lan, 0.3)
    cluster.faults.crash_host(cluster.hosts[1])
    cluster.sim.run_for(6.0)
    assert settle_wack(cluster, timeout=40.0)
    assert_single_owner_coverage(cluster)
    cluster.faults.set_duplication(cluster.lan, 0.0)
    cluster.faults.set_reordering(cluster.lan, 0.0)
    assert settle_wack(cluster, timeout=10.0)


# ----------------------------------------------------------------------
# slow host: K-miss suspicion rides out what K=1 flaps on


def test_slow_host_flaps_at_k1_and_rides_out_at_k2():
    """A factor-3 slowdown stretches heartbeats to 0.6s effective.

    With fd=0.5/hb=0.2 that is past the K=1 deadline (0.5s), so the
    paper profile's detector evicts the laggard; the hardened K=2
    deadline is fd + hb = 0.7s, so its detector absorbs every miss.
    """
    suspected = {}
    for profile in ("paper", "hardened"):
        cluster = build_gray_cluster(seed=19, profile=profile)
        assert settle_wack(cluster, timeout=30.0)
        baseline = sum(d.fd.suspicions for d in cluster.spreads)
        fault = cluster.faults.slow_host(cluster.hosts[0], 3.0)
        cluster.sim.run_for(6.0)
        suspected[profile] = sum(d.fd.suspicions for d in cluster.spreads) - baseline
        fault.undo()
        assert settle_wack(cluster, timeout=40.0)
        assert_single_owner_coverage(cluster)
    assert suspected["paper"] >= 1
    assert suspected["hardened"] == 0


# ----------------------------------------------------------------------
# clock skew: absolute-time disagreement must be harmless


def test_failover_with_skewed_clock():
    """Timers are interval-based, so a +/-45s wall-clock skew changes
    nothing about detection or fail-over — the scenario documents it."""
    cluster = build_gray_cluster(seed=23)
    assert settle_wack(cluster, timeout=30.0)
    skews = [
        cluster.faults.skew_clock(cluster.hosts[0], 45.0),
        cluster.faults.skew_clock(cluster.hosts[1], -45.0),
    ]
    assert cluster.hosts[0].local_time - cluster.hosts[1].local_time == 90.0
    cluster.faults.crash_host(cluster.hosts[2])
    assert settle_wack(cluster, timeout=40.0)
    assert_single_owner_coverage(cluster)
    for fault in skews:
        fault.undo()
    assert cluster.hosts[0].local_time == cluster.hosts[1].local_time


# ----------------------------------------------------------------------
# wedged daemon: the supervisor detects the stall and restarts it


def test_supervisor_restarts_wedged_spread_daemon():
    cluster = build_gray_cluster(seed=29)
    supervisor = cluster.supervisors[0]
    assert settle_wack(cluster, timeout=30.0)
    victim = cluster.hosts[0].spread_daemon
    cluster.faults.wedge_daemon(victim)
    cluster.sim.run_for(10.0)
    assert supervisor.wedges_detected >= 1
    assert supervisor.restarts >= 1
    replacement = cluster.hosts[0].spread_daemon
    assert replacement is not victim and replacement.alive
    # The Wackamole daemon reconnects to "whatever GCS daemon currently
    # runs on this host" (4.2) and the cluster re-converges.
    assert settle_wack(cluster, timeout=40.0)
    assert_single_owner_coverage(cluster)


def test_supervisor_restarts_killed_wackamole_daemon():
    cluster = build_gray_cluster(seed=31)
    supervisor = cluster.supervisors[0]
    assert settle_wack(cluster, timeout=30.0)
    victim = cluster.wacks[0]
    cluster.faults.kill_daemon(victim)
    cluster.sim.run_for(6.0)
    replacement = supervisor.wackamole
    assert replacement is not victim and replacement.alive
    assert supervisor.wack_restarts >= 1
    # The group put the replacement in its column; point the auditor
    # at the current generation before judging.
    assert cluster.wacks[0] is replacement
    cluster.auditor.daemons = list(cluster.wacks)
    assert settle_wack(cluster, timeout=40.0)
    assert_single_owner_coverage(cluster)

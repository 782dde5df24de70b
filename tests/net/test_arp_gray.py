"""ARP property tests under Gilbert-Elliott burst loss.

The gray repertoire's burst-loss channel defeats single-shot cache
repair: one spoofed announce lands inside a loss burst and every client
keeps routing to the old owner until its entry expires. The hardened
notifier (retries + periodic gratuitous re-announcement) must converge
the segment's caches anyway, and the wire-level duplicate-claim
resolver must leave every VIP with exactly one physical owner once the
network is stable again.

Loss parameters are bounded so each property is a near-certainty per
example: with ``loss_good=0`` and the default transition probabilities
the channel returns to its lossless GOOD state with probability 0.25
per frame, so the chance that *every* announce of a multi-second retry
campaign is swallowed is negligible — any failure hypothesis finds here
is a real protocol bug, reproducible from (loss, seed).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_arp_segment, build_wack_cluster, settle_wack

from repro.gcs.config import SpreadConfig
from repro.core.state import RUN
from repro.net.fault import FaultInjector
from repro.net.linkfault import GilbertElliott

#: Detection lenient relative to the loss level; with the hardened
#: row's K=2 suspicion a single burst never flaps membership.
GRAY_SPREAD = SpreadConfig.fast(fault_detection_timeout=1.5, discovery_timeout=0.6)


@given(st.floats(0.5, 0.95), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_announce_campaign_converges_client_cache(loss_bad, seed):
    """Retries + periodic re-announcement repoint a bursty segment.

    The single paper-behaviour announce may vanish into a burst; the
    hardened campaign (2 retries with backoff, then a gratuitous pass
    every second for ten seconds) must land at least one copy, after
    which the client's cache maps the VIP to the owner's real MAC.
    """
    sim, lan, owner, client, manager, vip = build_arp_segment(seed)
    lan.add_link_model(GilbertElliott(loss_good=0.0, loss_bad=loss_bad))
    manager.acquire(vip)
    for tick in range(1, 11):
        sim.at(float(tick), manager.reannounce_all)
    sim.run(until=11.0)
    assert client.arp.cache.lookup(vip) == owner.nics[0].mac
    # The retry series actually ran (it is scheduled unconditionally
    # while the address stays bound).
    assert manager.notifier.retries_sent >= 1


@given(st.floats(0.5, 0.9), st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_cache_converges_even_when_loss_persists(loss_bad, seed):
    """Convergence does not rely on the loss clearing.

    The channel stays installed for the whole run; the property holds
    because the campaign offers enough independent deliveries, not
    because the test quietly heals the network first.
    """
    sim, lan, owner, client, manager, vip = build_arp_segment(seed)
    model = GilbertElliott(loss_good=0.0, loss_bad=loss_bad)
    lan.add_link_model(model)
    manager.acquire(vip)
    for tick in range(1, 16):
        sim.at(float(tick), manager.reannounce_all)
    sim.run(until=16.0)
    assert lan.link_model is model
    assert client.arp.cache.lookup(vip) == owner.nics[0].mac


@given(st.integers(0, 2), st.floats(2.0, 5.0), st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_conflict_resolution_single_owner_after_asym_heal(deaf, duration, seed):
    """Once stable, no VIP has zero or two physical owners.

    An asymmetric partition makes one host deaf: its peers suspect it
    and re-acquire its VIPs while the deaf host keeps its bindings and
    keeps announcing them — every VIP it held now has two owners. After
    the heal, wire-level duplicate-claim detection plus the hardened
    resolution rules (multi-member view keeps and re-announces; the
    singleton backs off) must return every VIP to exactly one owner.
    """
    cluster = build_wack_cluster(
        3,
        seed=seed,
        n_vips=4,
        config=GRAY_SPREAD,
        profile="hardened",
    )
    assert settle_wack(cluster, timeout=30.0)
    injector = FaultInjector(cluster.sim)
    fault = injector.asym_partition(cluster.lan, [cluster.hosts[deaf]])
    cluster.sim.run_for(duration)
    fault.undo()
    assert settle_wack(cluster, timeout=40.0)
    live = [w for w in cluster.wacks if w.alive]
    assert all(w.machine.state == RUN and w.mature for w in live)
    assert cluster.auditor.check() == []
    # Physical ground truth, independent of the auditor's grouping:
    # exactly one host binds each virtual address.
    for group in cluster.wconfig.vip_groups:
        for address in group.addresses:
            owners = [h.name for h in cluster.hosts if h.alive and h.owns_ip(address)]
            assert len(owners) == 1, "{} owned by {}".format(address, owners)


@given(st.floats(0.5, 0.9), st.floats(2.0, 4.0), st.integers(0, 2**16))
@settings(max_examples=8, deadline=None)
def test_single_owner_after_asym_heal_under_burst_loss(loss_bad, duration, seed):
    """The resolution rules survive burst loss layered on the heal.

    Same duplicate-VIP scenario, but the segment also runs a
    Gilbert-Elliott channel during the partition so announces and GCS
    traffic arrive in bursts. The channel is removed with the heal
    (eventual convergence is the contract on a lossy segment) and the
    single-owner property must then hold.
    """
    cluster = build_wack_cluster(
        3,
        seed=seed,
        n_vips=4,
        config=GRAY_SPREAD,
        profile="hardened",
    )
    assert settle_wack(cluster, timeout=30.0)
    injector = FaultInjector(cluster.sim)
    burst = injector.burst_loss_on(
        cluster.lan, GilbertElliott(loss_good=0.0, loss_bad=loss_bad)
    )
    deafness = injector.asym_partition(cluster.lan, [cluster.hosts[0]])
    cluster.sim.run_for(duration)
    deafness.undo()
    burst.undo()
    assert settle_wack(cluster, timeout=40.0)
    for group in cluster.wconfig.vip_groups:
        for address in group.addresses:
            owners = [h.name for h in cluster.hosts if h.alive and h.owns_ip(address)]
            assert len(owners) == 1, "{} owned by {}".format(address, owners)

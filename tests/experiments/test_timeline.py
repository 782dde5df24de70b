"""Tests for the cluster coverage timeline sampler."""

from helpers import build_wack_cluster, settle_wack

from repro.experiments.plotting import render_series
from repro.obs.coverage import ClusterObserver


def test_samples_accumulate_on_interval():
    cluster = build_wack_cluster(2, n_vips=3)
    assert settle_wack(cluster)
    timeline = ClusterObserver(cluster.sim, cluster.wacks, interval=0.5).start()
    cluster.sim.run_for(2.6)
    timeline.stop()
    assert 5 <= len(timeline.samples) <= 7
    assert all(s.covered == 3 for s in timeline.samples)


def test_coverage_dip_detected_around_fault():
    cluster = build_wack_cluster(3, n_vips=4)
    assert settle_wack(cluster)
    timeline = ClusterObserver(cluster.sim, cluster.wacks, interval=0.05).start()
    cluster.sim.run_for(0.5)
    fault_time = cluster.sim.now
    cluster.faults.crash_host(cluster.hosts[0])
    assert settle_wack(cluster)
    cluster.sim.run_for(0.5)
    timeline.stop()
    dip = timeline.coverage_dip()
    assert dip is not None
    start, end, depth = dip
    assert start >= fault_time
    assert 1 <= depth <= 4
    # Coverage recovered by the end of the observation.
    assert timeline.samples[-1].covered == 4


def test_no_dip_on_quiet_cluster():
    cluster = build_wack_cluster(2, n_vips=2)
    assert settle_wack(cluster)
    timeline = ClusterObserver(cluster.sim, cluster.wacks, interval=0.1).start()
    cluster.sim.run_for(1.0)
    timeline.stop()
    assert timeline.coverage_dip() is None


def test_duplicates_observed_during_merge():
    cluster = build_wack_cluster(4, n_vips=4)
    assert settle_wack(cluster)
    cluster.faults.partition(cluster.lan, [cluster.hosts[:2], cluster.hosts[2:]])
    assert settle_wack(cluster)
    timeline = ClusterObserver(cluster.sim, cluster.wacks, interval=0.01).start()
    cluster.faults.heal(cluster.lan)
    assert settle_wack(cluster)
    timeline.stop()
    # While the two healed components both still covered everything,
    # the sampler saw duplicated slots.
    assert any(s.duplicated > 0 for s in timeline.samples)
    assert timeline.samples[-1].duplicated == 0


def test_daemon_state_counts():
    cluster = build_wack_cluster(2, n_vips=2)
    assert settle_wack(cluster)
    timeline = ClusterObserver(cluster.sim, cluster.wacks, interval=0.1).start()
    cluster.sim.run_for(0.5)
    timeline.stop()
    last = timeline.samples[-1]
    assert last.run_daemons == 2
    assert last.gather_daemons == 0
    assert last.live_daemons == 2


def test_series_and_render():
    cluster = build_wack_cluster(2, n_vips=2)
    assert settle_wack(cluster)
    timeline = ClusterObserver(cluster.sim, cluster.wacks, interval=0.2).start()
    cluster.sim.run_for(1.0)
    timeline.stop()
    series = timeline.series("covered")
    assert all(value == 2 for _, value in series)
    chart = render_series(
        {metric: timeline.series(metric) for metric in ("covered", "duplicated")},
        y_label="count",
    )
    assert "count" in chart
    assert "covered" in chart

"""Tests for the coverage timeline the coverage engine records."""

from helpers import build_wack_cluster, settle_wack

from repro.core.audit import CoverageEngine
from repro.experiments.plotting import render_series


def watch(cluster):
    return CoverageEngine(cluster.sim, cluster.auditor.audit)


def test_quiet_cluster_records_one_reading():
    cluster = build_wack_cluster(2, n_vips=3)
    assert settle_wack(cluster)
    timeline = watch(cluster)
    cluster.sim.run_for(2.6)
    timeline.finish()
    # Nothing changed, so the one reading is the state at attach time,
    # held until finish.
    start = timeline.readings[0][0]
    assert timeline.series("covered") == [(start, 3), (start + 2.6, 3)]
    assert timeline.coverage_gap_s == 0.0


def test_coverage_dip_detected_around_fault():
    cluster = build_wack_cluster(3, n_vips=4)
    assert settle_wack(cluster)
    timeline = watch(cluster)
    cluster.sim.run_for(0.5)
    fault_time = cluster.sim.now
    cluster.faults.crash_host(cluster.hosts[0])
    assert settle_wack(cluster)
    cluster.sim.run_for(0.5)
    timeline.finish()
    dip = timeline.coverage_dip()
    assert dip is not None
    start, end, depth = dip
    # The crash itself is the first instant below full coverage.
    assert start == fault_time
    assert 1 <= depth <= 4
    assert timeline.coverage_gap_s == end - start
    # Coverage recovered by the end of the observation.
    assert timeline.series("covered")[-1][1] == 4


def test_no_dip_on_quiet_cluster():
    cluster = build_wack_cluster(2, n_vips=2)
    assert settle_wack(cluster)
    timeline = watch(cluster)
    cluster.sim.run_for(1.0)
    timeline.finish()
    assert timeline.coverage_dip() is None


def test_duplicates_observed_during_merge():
    cluster = build_wack_cluster(4, n_vips=4)
    assert settle_wack(cluster)
    partition = cluster.faults.partition(cluster.lan, [cluster.hosts[:2], cluster.hosts[2:]])
    assert settle_wack(cluster)
    timeline = watch(cluster)
    partition.undo()
    assert settle_wack(cluster)
    timeline.finish()
    # While the two healed components both still covered everything,
    # the engine saw duplicated slots.
    duplicated = timeline.series("duplicated")
    assert any(value > 0 for _, value in duplicated)
    assert duplicated[-1][1] == 0


def test_daemon_state_counts():
    cluster = build_wack_cluster(2, n_vips=2)
    assert settle_wack(cluster)
    timeline = watch(cluster)
    cluster.sim.run_for(0.5)
    timeline.finish()
    assert timeline.series("run")[-1][1] == 2
    assert cluster.sim.metrics.timeseries("core.daemons_run", node="cluster").value == 2


def test_series_and_render():
    cluster = build_wack_cluster(2, n_vips=2)
    assert settle_wack(cluster)
    timeline = watch(cluster)
    cluster.sim.run_for(1.0)
    timeline.finish()
    series = timeline.series("covered")
    assert all(value == 2 for _, value in series)
    chart = render_series(
        {metric: timeline.series(metric) for metric in ("covered", "duplicated")},
        y_label="count",
    )
    assert "count" in chart
    assert "covered" in chart

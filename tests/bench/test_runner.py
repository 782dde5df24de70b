"""Unit tests for the bench harness: the record file and the tripwire."""

import json
import os

import pytest

from repro.bench import (
    BENCH_FORMAT,
    BENCHES,
    BenchComparison,
    format_run,
    load_trajectory,
    run_suite,
    save_trajectory,
    sysbench_summary,
)
from repro.bench.runner import baseline_of, run_bench

COMMITTED = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_kernel.json"
)


def make_run(rev="abc1234", units=100, **medians):
    benches = {name: {"median_s": median, "units": units} for name, median in medians.items()}
    return {"rev": rev, "host": {"cpus": 2}, "benches": benches}


def result_set(mode="end_to_end", **extra):
    """The shape ``sysbench/run.py --all --out`` writes, one workload."""
    if mode == "per_layer":
        values = {"net.self_s": 1.5, "sim.shard.calls": 7, "net.calls": 40}
    else:
        values = {"setup_s": 0.3, "op_ms_p50": 18.2}
    entry = {
        "metrics": {
            key: {"value": value, "unit": "s", "repeats": [value] * 3, "spread": 0.01}
            for key, value in values.items()
        },
        "fail_ratio": 0.0,
        "sim_digest": "d018279f0ff7b078",
        "repeat_spread": 0.04,
        "detail": {"raw": {"setup_s": 0.4}},
    }
    results = {
        "schema": "sysbench/1", "mode": mode, "seed": 3, "seconds": 10, "repeat": 3,
        "host": {"nproc": 2, "numpy": True}, "noisy": [], "workloads": {"ring_n32": entry},
    }
    results.update(extra)
    return results


def test_bench_names_cover_required_hot_paths():
    # One size each, no mode table: these three are the whole suite.
    assert sorted(BENCHES) == ["kernel_events", "kernel_timer_churn", "lan_fanout"]


def test_build_workload_returns_runnable_and_unit():
    run, unit = BENCHES["lan_fanout"]
    assert unit == "frames"
    # Deterministic, so pinned: 200 broadcasts to nine hosts each. It is
    # the size the tripwire pairs recorded runs by.
    assert run() == run() == 1800


def test_run_bench_records_samples_and_median():
    result = run_bench("lan_fanout", repeats=3)
    assert len(result["samples"]) == 3
    assert result["median_s"] == sorted(result["samples"])[1]
    assert result["units"] > 0 and result["per_s"] > 0


def test_run_suite_records_host_cpu_count():
    run = run_suite(repeats=1)
    assert set(run) == {"rev", "host", "benches"}
    assert run["host"] == {"cpus": os.cpu_count() or 1}
    assert set(run["benches"]) == set(BENCHES)


def test_bench_run_from_dict_tolerates_missing_host():
    # Entries recorded before host metadata existed.
    assert "cpus=?" in format_run({"benches": {}})


def test_trajectory_roundtrip(tmp_path):
    path = tmp_path / "BENCH.json"
    # No cap: the one record never drops its oldest before/after runs.
    runs = [make_run(kernel_events=float(i)) for i in range(60)]
    runs.append(sysbench_summary(result_set()))
    save_trajectory(path, runs)
    assert json.loads(path.read_text())["format"] == BENCH_FORMAT
    assert load_trajectory(path) == runs


def test_committed_record_loads_and_resaves_unchanged(tmp_path):
    runs = load_trajectory(COMMITTED)
    # The 19 runs recorded under repro-bench/1 (quick, full and scale,
    # eleven benches that no longer exist) are history, kept whole.
    legacy = [run for run in runs if "mode" in run]
    assert len(legacy) == 19 and legacy == runs[:19]
    assert any("kernel_sharded_n256" in run["benches"] for run in legacy)
    for run in runs[19:]:
        assert ("benches" in run) != ("sysbench" in run)
    path = tmp_path / "resaved.json"
    save_trajectory(path, runs)
    with open(COMMITTED) as handle:
        assert path.read_text() == handle.read()


def test_load_trajectory_missing_file_is_empty(tmp_path):
    assert load_trajectory(tmp_path / "missing.json") == []


def test_load_trajectory_rejects_foreign_format(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else", "runs": []}))
    with pytest.raises(ValueError):
        load_trajectory(path)
    path.write_text(json.dumps({"format": "repro-bench/1", "runs": [make_run(a=1.0)]}))
    assert load_trajectory(path) == [make_run(a=1.0)]


def test_sysbench_summary_keeps_medians_and_drops_repeats():
    summary = sysbench_summary(result_set())["sysbench"]
    workloads = summary.pop("workloads")
    assert summary == {
        "mode": "end_to_end", "seed": 3, "seconds": 10, "repeat": 3,
        "host": {"nproc": 2, "numpy": True},
    }
    assert workloads["ring_n32"] == {
        "metrics": {"setup_s": 0.3, "op_ms_p50": 18.2},
        "repeat_spread": 0.04,
        "sim_digest": "d018279f0ff7b078",
        "fail_ratio": 0.0,
    }
    layered = sysbench_summary(result_set(mode="per_layer"))["sysbench"]
    entry = layered["workloads"]["ring_n32"]
    assert "metrics" not in entry
    assert entry["layers"] == {
        "net": {"self_s": 1.5, "calls": 40},
        "sim.shard": {"calls": 7},
    }


def test_sysbench_summary_names_the_field_it_cannot_read():
    for results, field in (
        (result_set(schema="sysbench/2"), "schema"),
        ([], "schema"),
        (result_set(workloads={"ring_n32": {"metrics": {}}}), "repeat_spread"),
    ):
        with pytest.raises(ValueError, match=field):
            sysbench_summary(results)


def test_compare_runs_flags_regressions_over_threshold():
    baseline = make_run(kernel_events=0.100, lan_fanout=0.100)
    current = make_run(kernel_events=0.124, lan_fanout=0.126)
    comparison = BenchComparison([baseline], current, threshold=0.25)
    assert comparison.regressions == ["lan_fanout"]
    assert not comparison.ok
    assert "REGRESSION" in comparison.format()


def test_compare_runs_ok_when_faster_or_within_threshold():
    baseline = make_run(rev="0e219a6", kernel_events=0.100)
    current = make_run(kernel_events=0.060)
    comparison = BenchComparison([baseline], current)
    assert comparison.ok
    (name, rev, old_s, new_s, speedup) = comparison.rows[0]
    assert (name, rev) == ("kernel_events", "0e219a6")
    assert speedup == pytest.approx(0.100 / 0.060)


def test_compare_runs_without_baseline_is_ok():
    comparison = BenchComparison([], make_run(kernel_events=0.1))
    assert comparison.ok and comparison.rows == []
    assert "no previous" in comparison.format()


def test_compare_pairs_by_bench_and_units():
    # The size is read from the record: a 10 000-event run is never the
    # baseline of a 40 000-event one, however recent and however much
    # faster; a sysbench summary is skipped; each bench finds its own.
    old_full = make_run(rev="full", units=40_000, kernel_events=0.070, lan_fanout=0.002)
    newer = make_run(rev="newer", units=40_000, kernel_events=0.069)
    quick = make_run(rev="quick", units=10_000, kernel_events=0.001, lan_fanout=0.0001)
    record = [old_full, newer, quick, sysbench_summary(result_set())]
    assert baseline_of(record, "kernel_events", 10_000)[0] == "quick"
    assert baseline_of(record, "kernel_events", 20_000) is None
    current = make_run(units=40_000, kernel_events=0.071, lan_fanout=0.0021)
    comparison = BenchComparison(record, current)
    assert comparison.ok
    assert [(name, rev) for name, rev, _, _, _ in comparison.rows] == [
        ("kernel_events", "newer"), ("lan_fanout", "full"),
    ]

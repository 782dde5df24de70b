from sysbench.compare import OK, UNRESOLVED, WORSE, compare, exit_code, judge
from sysbench.stats import iqr_share, median


def metric(*repeats):
    return {"value": median(repeats), "repeats": list(repeats), "spread": iqr_share(repeats)}


def test_within_the_bound_is_ok():
    status, ratio, _ = judge(metric(100, 101, 102), metric(104, 105, 106), "lower", 0.10)
    assert status == OK
    assert round(ratio, 3) == 1.04


def test_beyond_the_bound_is_worse_in_the_metrics_direction():
    assert judge(metric(100, 101, 102), metric(115, 116, 117), "lower", 0.10)[0] == WORSE
    assert judge(metric(100, 101, 102), metric(85, 86, 87), "lower", 0.10)[0] == OK
    assert judge(metric(100, 101, 102), metric(85, 86, 87), "higher", 0.10)[0] == WORSE


def test_wide_overlapping_spread_is_unresolved():
    assert judge(metric(90, 100, 115), metric(95, 104, 120), "lower", 0.10)[0] == UNRESOLVED


def test_wide_spread_is_resolved_when_one_side_beats_the_other_throughout():
    assert judge(metric(90, 100, 115), metric(120, 130, 150), "lower", 0.10)[0] == WORSE
    assert judge(metric(120, 130, 150), metric(90, 100, 115), "lower", 0.10)[0] == OK


def result_set(p50, failed=0, digest="d"):
    return {
        "noisy": [],
        "workloads": {
            "w": {
                "metrics": {"op_ms_p50": metric(*p50)},
                "fail_ratio": failed / 100.0,
                "sim_digest": digest,
            }
        },
    }


CONTRACT = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.10}],
}


def test_compare_rows_and_exit_code():
    rows = compare(result_set((100, 101, 102)), result_set((100, 102, 103)), CONTRACT)
    assert [row[2] for row in rows] == [OK, OK, "same"]
    assert exit_code(rows) == 0
    rows = compare(result_set((100, 101, 102)), result_set((130, 131, 132), digest="e"), CONTRACT)
    assert [row[2] for row in rows] == [WORSE, OK, "moved"]
    assert exit_code(rows) == 1


def test_any_rise_of_the_failure_ratio_is_worse():
    rows = compare(result_set((100, 101, 102)), result_set((100, 101, 102), failed=1), CONTRACT)
    assert rows[1][:3] == ("w", "fail_ratio", WORSE)
    assert exit_code(rows) == 1

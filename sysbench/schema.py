"""The limits of the benchmark contract, as checks.

``check_contract`` holds ``BENCHMARK.json`` to the limits the driver
refuses a benchmark for; ``check_result`` holds one run's result to the
shape of the line the driver parses.
"""

import re

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check_contract(contract):
    assert set(contract) == KEYS, sorted(set(contract) ^ KEYS)
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
        names.append(metric["name"])
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [metric for metric in contract["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def check_result(contract, result, trace):
    expected = contract["per_layer"] if trace else contract["end_to_end"]
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)) and not isinstance(
            reported["value"], bool
        )
        if not trace:
            assert reported["value"] > 0, metric["name"]

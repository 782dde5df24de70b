"""BENCHMARK.json against the contract's limits and against the code."""

import json
import os
import subprocess
import sys

from sysbench import run, schema, spec


def contract():
    return run.load_contract()


def test_contract_is_within_the_limits():
    loaded = contract()
    schema.check_contract(loaded)
    assert len(json.dumps(loaded)) < 64 * 1024
    assert loaded["paths"] == ["sysbench"]
    assert loaded["command"] == ["python3", "sysbench/run.py"]


def test_contract_names_the_workloads_and_metrics_of_the_code():
    loaded = contract()
    assert [w["name"] for w in loaded["workloads"]] == list(spec.NAMES)
    for workload in loaded["workloads"]:
        assert workload["why"] == spec.WORKLOADS[workload["name"]]["why"]
    assert [m["name"] for m in loaded["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb",
    ]
    per_layer = {m["name"] for m in loaded["per_layer"]}
    for layer in spec.LAYERS:
        for suffix in ("self_s", "self_share", "calls", "calls_in", "setup_self_s"):
            assert "{}.{}".format(layer, suffix) in per_layer
    assert set(spec.COUNTS) <= per_layer
    assert set(spec.TIMINGS) <= per_layer


def test_layers_go_by_file_path():
    from sysbench import adapters

    package = adapters.PACKAGE
    assert adapters.layer_of_path(os.path.join(package, "sim", "scheduler.py")) == "sim"
    assert adapters.layer_of_path(os.path.join(package, "sim", "shard", "pool.py")) == "sim.shard"
    assert adapters.layer_of_path(os.path.join(package, "gcs", "daemon.py")) == "gcs"
    assert adapters.layer_of_path(os.path.join(package, "gcs", "segments.py")) == "gcs.segments"
    assert adapters.layer_of_path(os.path.join(package, "cli.py")) == "cli"
    assert adapters.layer_of_path(os.path.join(adapters.SYSBENCH, "driver.py")) == "harness"
    assert adapters.layer_of_path("~") is None
    assert adapters.layer_of_path(os.__file__) is None
    for name in os.listdir(package):
        if name != "__pycache__":
            assert adapters.layer_of_path(os.path.join(package, name, "x.py")) in spec.LAYERS


def test_smoke_runs_every_workload_and_validates_the_schema():
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
    )
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    lines = done.stdout.decode().splitlines()
    assert sum(line.startswith("# smoke") for line in lines) == len(spec.NAMES) + 1

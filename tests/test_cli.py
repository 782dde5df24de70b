"""Tests for the command-line interface."""

import json
import os
import sys

import pytest

from repro import cli
from repro.check.campaign import make_artifact
from repro.check.trial import make_spec
from repro.cli import CHECK_PLAN, EXPERIMENTS, WEB_PLAN, build_parser, main

#: A JSON file that no campaign wrote.
FOREIGN_JSON = os.path.join(os.path.dirname(__file__), "golden_cli_help.json")
#: A file and a directory that hold no Python.
REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
README = os.path.join(REPO_ROOT, "README.md")
DOCS = os.path.join(REPO_ROOT, "docs")


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


def test_table1_command():
    code, output = run_cli(["table1", "--trials", "1", "--servers", "2"])
    assert code == 0
    assert "Table 1. Spread timeout tuning" in output
    assert "Failure notification time" in output


def test_figure5_command_with_chart():
    code, output = run_cli(
        ["figure5", "--sizes", "2", "--trials", "1", "--vips", "4", "--chart"]
    )
    assert code == 0
    assert "Figure 5" in output
    assert "Cluster Size" in output
    assert "Fine-tuned" in output
    assert "|" in output  # the chart frame


def test_graceful_command():
    code, output = run_cli(["graceful", "--trials", "2", "--servers", "2"])
    assert code == 0
    assert "Voluntary leave" in output


def test_baselines_command():
    code, output = run_cli(["baselines"])
    assert code == 0
    for protocol in ("wackamole-tuned", "vrrp", "hsrp", "fake"):
        assert protocol in output


def test_router_command():
    code, output = run_cli(["router", "--trials", "1", "--rip-interval", "10"])
    assert code == 0
    assert "naive" in output and "advertise_all" in output


def test_observe_before_the_cluster_settled_is_one_line_and_exit_1():
    # Half a second is before the maturity timeout: nobody owns the probed
    # address yet, so there is no owner to break (this used to be a traceback).
    code, output = run_cli(["observe", "--settle", "0.5", "--duration", "1"])
    assert code == 1
    assert output == "cluster had not settled after 0.5 seconds (--settle)"


def test_check_command_clean_campaign(tmp_path):
    code, output = run_cli(
        [
            "check", "--trials", "2", "--workers", "1", "--seed", "7",
            "--servers", "3", "--vips", "4", "--horizon", "20",
            "--events", "4", "--artifacts", str(tmp_path),
        ]
    )
    assert code == 0
    assert "all trials passed" in output


def test_check_command_planted_bug_fails_and_replays(tmp_path):
    code, output = run_cli(
        [
            "check", "--trials", "1", "--workers", "1", "--seed", "1",
            "--horizon", "30", "--events", "6",
            "--fixture", "broken-balance", "--artifacts", str(tmp_path),
        ]
    )
    assert code == 1
    assert "FAILURE" in output
    artifact = output.split("artifact: ")[1].splitlines()[0].strip()
    # The same failure saved without the spec fields the scale stack,
    # the trace window and the flow plane brought, as every artifact
    # before them was, replays as it was saved.
    with open(artifact) as handle:
        saved = json.load(handle)
    for field in ("stack", "segment_size", "shards", "workers", "trace_capacity",
                  "flow_users", "flow_rate"):
        del saved["spec"][field]
    legacy = str(tmp_path / "legacy.json")
    with open(legacy, "w") as handle:
        json.dump(saved, handle)
    for path in (artifact, legacy):
        code, output = run_cli(["check", "--replay", path, "--repeat", "2"])
        assert code == 0
        assert output.count("identical reproduction") == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_help_lists_subcommands():
    parser = build_parser()
    help_text = parser.format_help()
    for command in ("table1", "figure5", "graceful", "router", "baselines", "tuning", "all"):
        assert command in help_text


def test_experiment_defaults_are_the_constructors_and_all_runs_the_table(monkeypatch):
    import importlib
    import inspect

    for command, (_text, classes, flags) in EXPERIMENTS.items():
        assert vars(build_parser().parse_args([command])) == {"command": command}
        takes = set()
        for path in classes:
            module, name = path.rsplit(".", 1)
            factory = getattr(importlib.import_module("repro.experiments." + module), name)
            takes.update(inspect.signature(factory).parameters)
        for option, settings in flags:
            if option != "--chart":  # figure5's one flag that is no keyword
                assert settings.get("dest", option[2:].replace("-", "_")) in takes, option
    ran = []
    monkeypatch.setattr(cli, "_run_experiment", lambda args, out: ran.append(args.command))
    assert main(["all"], out=lambda line: None) == 0
    assert ran == list(EXPERIMENTS)


def test_a_reader_that_leaves_early_ends_the_command_quietly(monkeypatch):
    # `repro graceful | head -1` ended in a BrokenPipeError traceback.
    def closed(line):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", sys.stdout)
    assert main(["lint", "--list-rules"], out=closed) == 1
    assert sys.stdout is None  # so the flush at exit has nothing to fail on


def test_bench_writes_trajectory_and_gates_on_regression(tmp_path):
    import json

    path = tmp_path / "BENCH.json"
    # A wide threshold keeps single-repeat timing jitter on the ~2 ms
    # workload from tripping the gate; the planted baseline below is
    # faster by orders of magnitude, so it still regresses.
    args = ["bench", "--repeat", "1", "--threshold", "9.0", "--output", str(path)]
    code, output = run_cli(args)
    assert code == 0
    assert "repro bench rev=" in output
    assert "no previous run" in output
    data = json.loads(path.read_text())
    assert data["format"] == "repro-bench/2"
    assert len(data["runs"]) == 1

    # Second run appends and compares against the first.
    code, output = run_cli(args)
    assert code == 0
    assert "vs the last recorded run" in output
    assert len(json.loads(path.read_text())["runs"]) == 2

    # Plant an absurdly fast baseline: the next run must gate.
    data = json.loads(path.read_text())
    data["runs"][-1]["benches"]["lan_fanout"]["median_s"] = 1e-9
    path.write_text(json.dumps(data))
    code, output = run_cli(args)
    assert code == 1
    assert "REGRESSION" in output
    # The regressing run is still recorded for inspection.
    assert len(json.loads(path.read_text())["runs"]) == 3


def test_bench_no_write_leaves_trajectory_untouched(tmp_path):
    path = tmp_path / "BENCH.json"
    code, output = run_cli(
        ["bench", "--repeat", "1", "--no-write", "--no-compare", "--output", str(path)]
    )
    assert code == 0
    assert not path.exists()


def test_bench_sysbench_appends_a_summary_or_exits_2_naming_the_field(tmp_path):
    import json

    record, results = tmp_path / "BENCH.json", tmp_path / "results.json"
    argv = ["bench", "--sysbench", str(results), "--output", str(record)]
    valid = {"schema": "sysbench/1", "mode": "end_to_end", "seed": 4, "seconds": 10,
             "repeat": 3, "host": {"nproc": 2}, "workloads": {}}
    results.write_text(json.dumps(valid))
    code, output = run_cli(argv)
    assert code == 0 and "sysbench summary [end_to_end]" in output
    (run,) = json.loads(record.read_text())["runs"]
    assert run["sysbench"]["seed"] == 4 and "benches" not in run  # no tripwire ran
    for contents, field in (
        (json.dumps(dict(valid, schema="other/1")), "schema"),
        (json.dumps({k: v for k, v in valid.items() if k != "workloads"}), "workloads"),
        ("not json", "results.json"),
    ):
        results.write_text(contents)
        code, output = run_cli(argv)
        assert code == 2 and field in output
    assert len(json.loads(record.read_text())["runs"]) == 1


# ----------------------------------------------------------------------
# counts, sizes and durations fail loudly at the parser


@pytest.mark.parametrize(
    "argv, flag",
    [
        # A campaign that would check nothing: no VIP, no time, no worker.
        (["check", "--trials", "1", "--vips", "0", "--horizon", "0",
          "--events", "-1", "--workers", "0"], "--vips"),
        (["check", "--trials", "0"], "--trials"),
        (["check", "--horizon", "0"], "--horizon"),
        (["check", "--events", "-1"], "--events"),
        (["check", "--workers", "0"], "--workers"),
        (["check", "--servers", "1"], "--servers"),
        (["check", "--replay", "artifact.json", "--repeat", "0"], "--repeat"),
        (["check", "--shards", "0"], "--shards"),
        # These three used to die in a traceback.
        (["flow", "--users", "0"], "--users"),
        (["flow", "--users", "-5"], "--users"),
        (["table1", "--trials", "0"], "--trials"),
        (["table1", "--servers", "1"], "--servers"),
        (["flow", "--tick", "0"], "--tick"),
        (["flow", "--rate", "-1"], "--rate"),
        (["flow", "--observe", "nan"], "--observe"),
        (["flow", "--vips", "0"], "--vips"),
        (["observe", "--settle", "0"], "--settle"),
        (["observe", "--duration", "-2"], "--duration"),
        (["observe", "--servers", "1"], "--servers"),
        (["figure5", "--sizes", "2", "1"], "--sizes"),
        (["figure5", "--trials", "0"], "--trials"),
        (["graceful", "--trials", "0"], "--trials"),
        (["graceful", "--servers", "1"], "--servers"),
        (["check", "--trials", "many"], "--trials"),
        # These died in a traceback or printed a chart of nothing.
        (["router", "--trials", "0"], "--trials"),
        (["router", "--rip-interval", "0"], "--rip-interval"),
        (["tuning", "--duration", "-5", "--trials", "0"], "--duration"),
        (["tuning", "--trials", "0"], "--trials"),
        (["load", "--duration", "0"], "--duration"),
        (["load", "--trials", "-1"], "--trials"),
        (["availability", "--window", "0"], "--window"),
        (["availability", "--faults", "0"], "--faults"),
        (["availability", "--trials", "0"], "--trials"),
        (["bench", "--repeat", "-1"], "--repeat"),
        (["bench", "--repeat", "0"], "--repeat"),
        (["bench", "--threshold", "-0.1"], "--threshold"),
        # These said "0 file(s), 0 finding(s) — clean" and exited 0, or
        # linted the one path that exists and said clean.
        (["lint", "nope/missing"], "paths"),
        (["lint", "nope/missing", __file__], "paths"),
        # These two died in a traceback (FileNotFoundError, ValueError).
        (["check", "--replay", "/nonexistent.json"], "--replay"),
        (["check", "--replay", FOREIGN_JSON], "--replay"),
        # These died in a traceback: a cluster beyond its address plan.
        (["flow", "--vips", "51"], "--vips"),
        (["flow", "--servers", "141"], "--servers"),
        (["observe", "--vips", "51"], "--vips"),
        (["check", "--vips", "120"], "--vips"),
        (["check", "--servers", "150"], "--servers"),
        (["table1", "--servers", "141"], "--servers"),
        (["figure5", "--sizes", "2", "141"], "--sizes"),
        (["figure5", "--vips", "51"], "--vips"),
        (["graceful", "--servers", "141"], "--servers"),
        # These said "0 file(s), 0 finding(s) — clean" and exited 0.
        (["lint", README], "paths"),
        (["lint", DOCS], "paths"),
        # These died in a traceback from ShardPlan, or ran one mode and
        # silently ignored the other flag.
        (["check", "--shards", "100"], "--shards"),
        (["check", "--shards", "9"], "--shards"),
        (["check", "--shards", "4", "--gray"], "--gray"),
        (["check", "--shards", "4", "--corrupt"], "--corrupt"),
        (["check", "--shards", "4", "--replay", FOREIGN_JSON], "--replay"),
        (["check", "--replay", FOREIGN_JSON, "--gray"], "--gray"),
        (["check", "--replay", FOREIGN_JSON, "--corrupt"], "--corrupt"),
        # These ran their one trial, ignored the flag and exited 0.
        (["check", "--shards", "2", "--servers", "8"], "--servers"),
        (["check", "--shards", "2", "--vips", "3"], "--vips"),
        (["check", "--shards", "2", "--trials", "9"], "--trials"),
        (["check", "--shards", "2", "--horizon", "5"], "--horizon"),
        (["check", "--shards", "2", "--events", "2"], "--events"),
        (["check", "--shards", "2", "--fixture", "broken-balance"], "--fixture"),
        (["check", "--shards", "2", "--no-shrink"], "--no-shrink"),
        (["check", "--shards", "2", "--repeat", "2"], "--repeat"),
        (["check", "--replay", FOREIGN_JSON, "--servers", "9"], "--servers"),
        (["check", "--replay", FOREIGN_JSON, "--vips", "50"], "--vips"),
        (["check", "--replay", FOREIGN_JSON, "--trials", "7"], "--trials"),
        (["check", "--replay", FOREIGN_JSON, "--horizon", "3"], "--horizon"),
        (["check", "--replay", FOREIGN_JSON, "--events", "2"], "--events"),
        (["check", "--replay", FOREIGN_JSON, "--fixture", "broken-balance"], "--fixture"),
        (["check", "--replay", FOREIGN_JSON, "--no-shrink"], "--no-shrink"),
        (["check", "--replay", FOREIGN_JSON, "--artifacts", "D"], "--artifacts"),
        (["check", "--replay", FOREIGN_JSON, "--workers", "2"], "--workers"),
        (["check", "--replay", FOREIGN_JSON, "--seed", "5"], "--seed"),
        # A parity check of one shard compared the serial run with itself.
        (["check", "--shards", "1"], "--shards"),
        # These ran for ever; the last rewrote BENCH_kernel.json first.
        (["check", "--horizon", "inf"], "--horizon"),
        (["observe", "--duration", "inf"], "--duration"),
        (["bench", "--threshold", "inf"], "--threshold"),
    ],
)
def test_bad_count_size_or_duration_exits_2_naming_the_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as raised:
        main(argv, out=lambda line: None)
    assert raised.value.code == 2
    assert "argument {}:".format(flag) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["lint", "nope/missing", __file__], "nope/missing"),
        (["check", "--replay", "/nonexistent.json"], "/nonexistent.json"),
        (["check", "--replay", FOREIGN_JSON], FOREIGN_JSON + ": not a repro-check artifact"),
        (["lint", __file__, README], "no Python file in: " + README),
    ],
    ids=["lint-missing", "replay-missing", "replay-foreign", "lint-not-python"],
)
def test_what_only_a_handler_can_reject_is_one_line_naming_the_file(argv, named, capsys):
    with pytest.raises(SystemExit):
        main(argv, out=lambda line: None)
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("repro {}: error: ".format(argv[0])) and named in line


def _artifact(*events, **spec_fields):
    spec = make_spec(1, {"horizon": 10.0, "events": list(events)})
    spec.update(spec_fields)
    return make_artifact(spec, {"verdict": "violation"})


def _without(artifact, key):
    return {k: v for k, v in artifact.items() if k != key}


CRASH_0 = {"kind": "crash", "time": 1.0, "duration": 2.0, "host": 0}


def _with_spec(spec):
    return dict(_artifact(CRASH_0), spec=spec)


@pytest.mark.parametrize(
    "artifact, named",
    [
        (_artifact({"kind": "crash", "time": 1.0, "duration": 2.0, "host": 9}), "crash"),
        (_artifact({"kind": "crash", "time": 1.0, "duration": 2.0}), "crash"),
        (_artifact({"kind": "partition", "time": 1.0, "duration": 2.0}), "partition"),
        (_artifact({"kind": "crash", "time": -3.0, "duration": 2.0, "host": 0}), "crash"),
        (_artifact({"kind": "nic_flap", "time": 1.0, "duration": -2.0, "host": 0}), "nic_flap"),
        (_artifact({"kind": "partition", "time": 1.0, "duration": 2.0, "split": [7, 9]}),
         "partition"),
        # These died in a traceback: AttributeError, KeyError, KeyError.
        ([_artifact(CRASH_0)], "not a repro-check artifact (a JSON list, not an object)"),
        (_without(_artifact(CRASH_0), "spec"), "artifact has no spec"),
        (_without(_artifact(CRASH_0), "result"), "artifact has no result"),
        (_artifact(CRASH_0, bogus_field=1), "unknown spec fields: ['bogus_field']"),
        # These died in a traceback: TypeError, TypeError, TypeError, KeyError, TypeError.
        (_with_spec([CRASH_0]), "artifact spec is a JSON list, not an object"),
        (_with_spec(_without(_artifact(CRASH_0)["spec"], "seed")), "artifact spec has no seed"),
        (_with_spec(dict(_artifact()["spec"], schedule=[CRASH_0])),
         "spec schedule is a JSON list, not an object"),
        (_artifact({"kind": "crash", "duration": 2.0, "host": 0}), "schedule event has no time"),
        (_artifact(dict(CRASH_0, time=None)), "artifact spec: float() argument"),
        # These ran on, never ending, or ran a trial of no time at all.
        (_artifact(dict(CRASH_0, time=1e999)), "crash needs finite time"),
        (_artifact(dict(CRASH_0, duration=1e999)), "crash needs finite time"),
        (_with_spec(dict(_artifact()["spec"], schedule={"horizon": 1e999, "events": []})),
         "a schedule needs a finite horizon >= 0, got inf"),
        (_with_spec(dict(_artifact()["spec"], schedule={"horizon": -1.0, "events": []})),
         "a schedule needs a finite horizon >= 0, got -1.0"),
        (_with_spec(dict(_artifact()["spec"], schedule={"horizon": float("nan"), "events": []})),
         "a schedule needs a finite horizon >= 0, got nan"),
    ],
    ids=["host-past-cluster", "crash-no-host", "partition-no-split", "negative-time",
         "negative-duration", "split-past-cluster", "not-an-object", "no-spec", "no-result",
         "unknown-spec-field", "spec-a-list", "spec-no-seed", "schedule-a-list",
         "event-no-time", "event-time-null", "event-time-inf", "event-duration-inf",
         "horizon-inf", "horizon-negative", "horizon-nan"],
)
def test_replay_of_a_malformed_schedule_is_one_line_and_exit_2(artifact, named, tmp_path, capsys):
    # The first of these printed an IndexError traceback and exited 1.
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(artifact))
    with pytest.raises(SystemExit) as raised:
        main(["check", "--replay", str(path)], out=lambda line: None)
    assert raised.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("repro check: error: argument --replay: " + str(path))
    assert named in line


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["flow", "--vips", "51"], "at most 50 (the web cluster's address plan), got 51"),
        (["observe", "--vips", "51"], "at most 50 (the web cluster's address plan), got 51"),
        (["check", "--vips", "120"], "at most 100 (the check cluster's address plan), got 120"),
        (["check", "--servers", "150"], "at most 90 (the check cluster's address plan), got 150"),
    ],
)
def test_a_cluster_beyond_its_address_plan_is_one_line_naming_the_limit(argv, limit, capsys):
    with pytest.raises(SystemExit):
        main(argv, out=lambda line: None)
    line = capsys.readouterr().err.splitlines()[-1]  # argparse prints its usage first
    assert line.startswith("repro {}: error: argument {}:".format(*argv[:2])) and limit in line


def test_the_parsers_size_limits_are_the_constructors():
    from repro.apps.webcluster import WebClusterScenario
    from repro.check.fixtures import daemon_class
    from repro.check.harness import CheckCluster
    from repro.sim.simulation import Simulation

    def web(servers, vips):
        return WebClusterScenario(n_servers=servers, n_vips=vips)

    def check(servers, vips):
        return CheckCluster(Simulation(seed=0), servers, vips, daemon_class("standard"))

    for build, plan in ((web, WEB_PLAN), (check, CHECK_PLAN)):
        build(plan["servers"], plan["vips"])
        for servers, vips in ((plan["servers"] + 1, 1), (2, plan["vips"] + 1)):
            with pytest.raises(ValueError, match="address plan"):
                build(servers, vips)


def test_edge_values_still_parse():
    # Zero events is a fault-free campaign; two servers is one survivor.
    args = build_parser().parse_args(
        ["check", "--events", "0", "--servers", "2", "--horizon", "0.5"]
    )
    assert (args.events, args.servers, args.horizon) == (0, 2, 0.5)
    args = build_parser().parse_args(["flow", "--users", "1", "--tick", "1e-3"])
    assert (args.users, args.tick) == (1, 0.001)
    args = build_parser().parse_args(["bench", "--threshold", "0", "--repeat", "1"])
    assert (args.threshold, args.repeat) == (0.0, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--quick"],
        ["bench", "--scale"],
        ["bench", "--shards", "2"],
        ["bench", "--benches", "lan_fanout"],
        ["bench", "--list"],
        ["lint", "--baseline", "lint-baseline.json"],
        ["lint", "--no-baseline"],
        ["lint", "--update-baseline"],
        ["flow", "--pure-python"],
        ["lint", "--protocol", "messages.py:daemon.py"],
        ["lint", "--sim-restrict", "fixtures"],
    ],
)
def test_removed_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        main(argv, out=lambda line: None)
    assert raised.value.code == 2
    assert "unrecognized arguments: {}".format(argv[1]) in capsys.readouterr().err

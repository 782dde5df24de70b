"""The `repro lint` subcommand end to end."""

import json
import os

import pytest

from repro.analysis.report import render_text
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
SRC = os.path.join(REPO_ROOT, "src", "repro")


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(str(line) for line in lines)


def fixture(name):
    return os.path.join(FIXTURES, name)


BAD_FIXTURE_ARGS = [
    ("DET001", [fixture("det001_bad.py")]),
    ("DET002", [fixture("det002_bad.py")]),
    ("DET003", [fixture("det003_bad.py")]),
    ("DET004", [fixture("det004_bad.py")]),
    (
        "PROTO001",
        [
            fixture("proto001_bad"),
            "--protocol",
            "proto001_bad/messages.py:proto001_bad/daemon.py",
        ],
    ),
    ("DET005", [fixture("det005_bad.py"), "--sim-restrict", "fixtures"]),
    ("DET006", [fixture("det006_bad.py"), "--sim-restrict", "fixtures"]),
    ("SHARD001", [fixture("shard001_bad.py"), "--sim-restrict", "fixtures"]),
    ("SIM001", [fixture("sim001_bad.py"), "--sim-restrict", "fixtures"]),
]

ALL_CODES = (
    "DET001",
    "DET002",
    "DET003",
    "DET004",
    "DET005",
    "DET006",
    "PROTO001",
    "PROTO002",
    "PROTO003",
    "SHARD001",
    "SIM001",
)


@pytest.mark.parametrize("code,args", BAD_FIXTURE_ARGS, ids=[c for c, _ in BAD_FIXTURE_ARGS])
def test_cli_exits_nonzero_on_each_bad_fixture(code, args):
    exit_code, output = run_cli(["lint"] + args)
    assert exit_code == 1
    assert code in output


def test_cli_exits_zero_on_good_fixtures():
    exit_code, output = run_cli(
        [
            "lint",
            fixture("det001_good.py"),
            fixture("det002_good.py"),
            fixture("det003_good.py"),
            fixture("det004_good.py"),
            fixture("sim001_good.py"),
            fixture("proto001_good"),
            "--protocol",
            "proto001_good/messages.py:proto001_good/daemon.py",
            "--sim-restrict",
            "fixtures",
        ]
    )
    assert exit_code == 0, output


def test_cli_json_format(tmp_path):
    exit_code, output = run_cli(
        ["lint", "--format", "json", fixture("det002_bad.py")]
    )
    assert exit_code == 1
    payload = json.loads(output)
    assert payload["format"] == "repro-lint/1"
    assert all(f["rule"] == "DET002" for f in payload["findings"])


def test_cli_list_rules():
    exit_code, output = run_cli(["lint", "--list-rules"])
    assert exit_code == 0
    for code in ALL_CODES:
        assert code in output


@pytest.mark.parametrize("code", ALL_CODES)
def test_cli_explain_every_rule(code):
    exit_code, output = run_cli(["lint", "--explain", code])
    assert exit_code == 0
    assert output.startswith(code)
    assert "bad:" in output
    assert "good:" in output


def test_cli_explain_is_case_insensitive():
    exit_code, output = run_cli(["lint", "--explain", "det005"])
    assert exit_code == 0
    assert output.startswith("DET005")


def test_cli_explain_unknown_code_fails():
    exit_code, output = run_cli(["lint", "--explain", "NOPE999"])
    assert exit_code == 1
    assert "unknown rule" in output


def test_cli_state_machines_json():
    exit_code, output = run_cli(["lint", SRC, "--state-machines"])
    assert exit_code == 0
    payload = json.loads(output)
    assert payload["format"] == "repro-state-machines/1"
    names = [m["name"] for m in payload["machines"]]
    assert names == sorted(names)
    assert "gcs.daemon" in names


def test_cli_state_machines_matches_committed_artifact():
    """CI diffs this artifact; the committed copy must never drift."""
    exit_code, output = run_cli(["lint", SRC, "--state-machines"])
    assert exit_code == 0
    with open(os.path.join(REPO_ROOT, "docs", "state-machines.json")) as handle:
        assert json.load(handle) == json.loads(output)


def test_cli_rejects_malformed_protocol_spec():
    with pytest.raises(SystemExit):
        run_cli(["lint", fixture("det001_good.py"), "--protocol", "nonsense"])


def test_repo_tree_is_clean(repo_lint):
    """Acceptance: `repro lint src/repro` finds nothing on the committed tree."""
    assert repo_lint.ok, render_text(repo_lint)

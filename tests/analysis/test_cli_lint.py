"""The `repro lint` subcommand end to end."""

import json
import os

import pytest

from repro import analysis
from repro.analysis.report import render_text
from repro.cli import main
from tests.analysis.test_rules import fixture, fixture_config

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
SRC = os.path.join(REPO_ROOT, "src", "repro")


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(str(line) for line in lines)


@pytest.fixture
def fixture_layout(monkeypatch):
    """`repro lint` reads the fixture tree as its substrate and machines."""
    monkeypatch.setattr(analysis, "LintConfig", fixture_config)


BAD_FIXTURE_ARGS = [
    ("DET001", fixture("det001_bad.py")),
    ("DET001", fixture("det002_bad.py")),
    ("DET003", fixture("det003_bad.py")),
    ("DET003", fixture("det004_bad.py")),
    ("PROTO002", fixture("proto001_bad")),
    ("DET005", fixture("det005_bad.py")),
    ("SHARD001", fixture("det006_bad.py")),
    ("SHARD001", fixture("shard001_bad.py")),
    ("DET001", fixture("sim001_bad.py")),
]

ALL_CODES = ("DET001", "DET003", "DET005", "PROTO002", "PROTO003", "SHARD001")


@pytest.mark.parametrize(
    "code,path",
    BAD_FIXTURE_ARGS,
    ids=[os.path.basename(path).split("_")[0].upper() for _, path in BAD_FIXTURE_ARGS],
)
def test_cli_exits_nonzero_on_each_bad_fixture(code, path, fixture_layout):
    exit_code, output = run_cli(["lint", path])
    assert exit_code == 1
    assert code in output


def test_cli_exits_zero_on_good_fixtures(fixture_layout):
    exit_code, output = run_cli(
        [
            "lint",
            fixture("det001_good.py"),
            fixture("det002_good.py"),
            fixture("det003_good.py"),
            fixture("det004_good.py"),
            fixture("sim001_good.py"),
            fixture("proto001_good"),
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
    assert all(f["rule"] == "DET001" for f in payload["findings"])


def test_cli_list_rules():
    exit_code, output = run_cli(["lint", "--list-rules"])
    assert exit_code == 0
    assert [line.split()[0] for line in output.splitlines()] == list(ALL_CODES)


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
    # SIM001 lives on inside DET001; its code is not an alias.
    for code in ("NOPE999", "sim001"):
        exit_code, output = run_cli(["lint", "--explain", code])
        assert exit_code == 1
        assert "unknown rule" in output


def test_cli_state_machines_json(cli_state_machines):
    exit_code, output = cli_state_machines
    assert exit_code == 0
    payload = json.loads(output)
    assert payload["format"] == "repro-state-machines/1"
    names = [m["name"] for m in payload["machines"]]
    assert names == sorted(names)
    assert "gcs.daemon" in names


def test_cli_state_machines_matches_committed_artifact(cli_state_machines):
    """CI diffs this artifact; the committed copy is the CLI's stdout."""
    exit_code, output = cli_state_machines
    assert exit_code == 0
    with open(os.path.join(REPO_ROOT, "docs", "state-machines.json")) as handle:
        assert handle.read() == output + "\n"


def test_repo_tree_is_clean(repo_lint):
    """Acceptance: `repro lint src/repro` finds nothing on the committed tree."""
    assert repo_lint.ok, render_text(repo_lint)

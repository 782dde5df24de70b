"""The `repro lint` subcommand end to end."""

import functools
import json
import os

import pytest

from repro import analysis
from repro.analysis.report import render_text
from repro.cli import main
from tests.analysis.test_rules import FIXTURE_MACHINES, fixture

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
    """`repro lint` reads its state machines from the fixture tree."""
    monkeypatch.setattr(
        analysis, "lint", functools.partial(analysis.lint, state_machines=FIXTURE_MACHINES)
    )


BAD_FIXTURE_ARGS = [
    ("PROTO003", fixture("proto003_bad.py")),
]


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
    exit_code, output = run_cli(["lint", fixture("proto003_good.py")])
    assert exit_code == 0, output


def test_cli_json_format(fixture_layout):
    exit_code, output = run_cli(
        ["lint", "--format", "json", fixture("proto003_bad.py")]
    )
    assert exit_code == 1
    payload = json.loads(output)
    assert payload["format"] == "repro-lint/2"
    assert payload["findings"] and all(f["rule"] == "PROTO003" for f in payload["findings"])


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

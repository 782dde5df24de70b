"""A command pays for what it uses: what a cold ``repro`` imports, and when.

No command loads numpy, ``repro.cli`` imports nothing of ``repro``
until a handler runs, and the parser is built from names alone.
Everything about *what is loaded* is asked of a fresh interpreter —
this process has imported most of it.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.check.fixtures import FIXTURES
from repro.cli import FAULT_MODES, FIXTURE_NAMES, main
from repro.obs import observe

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
TESTS = os.path.join(ROOT, "tests")

#: Prints what a script left loaded: numpy or not, then the repro modules.
REPORT = (
    "import sys; print('numpy' in sys.modules, "
    "' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
)


def fresh(script):
    """stdout lines of ``script`` run in a new interpreter at the repo root."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.join(ROOT, "src"), TESTS)))
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode().splitlines()


def test_importing_the_cli_imports_nothing_else_of_repro():
    assert fresh("import repro.cli\n" + REPORT) == ["False repro repro.cli"]


def test_no_command_loads_numpy(tmp_path):
    script = "\n".join([
        "import repro.cli as cli, sys",
        "def run(argv):",
        "    try:",
        "        code = cli.main(argv, out=lambda line: None)",
        "    except SystemExit as stop:",
        "        code = stop.code",
        "    print(code, 'numpy' in sys.modules)",
        "run(['check', '--help'])",
        "run(['lint', 'src/repro/analysis'])",
        "run(['check', '--trials', '2', '--workers', '1', '--horizon', '10',",
        "     '--events', '2', '--artifacts', {!r}])".format(str(tmp_path / "trials")),
        "run(['flow', '--users', '1000', '--observe', '1'])",
        "run(['check', '--shards', '2', '--workers', '2', '--artifacts', {!r}])".format(
            str(tmp_path / "shards")
        ),
    ])
    assert fresh(script)[-5:] == ["0 False"] * 5


# ----------------------------------------------------------------------
# the parser is built from names


def test_choice_names_match_the_registries():
    assert FIXTURE_NAMES == tuple(sorted(FIXTURES))
    assert FAULT_MODES == observe.FAULT_MODES


@pytest.mark.skipif(
    sys.version_info[:2] not in ((3, 11), (3, 12)),
    reason="argparse words and wraps its help differently before 3.10 and after 3.12",
)
def test_help_of_every_subcommand_is_the_recorded_text(monkeypatch, capsys):
    # Re-recorded when `flow --fault` took FAULT_MODES, `lint` lost
    # --protocol and --sim-restrict (and later --list-rules and
    # --explain), and `observe` gained --cost and --hosts; every choice
    # list is a name.
    monkeypatch.setenv("COLUMNS", "80")
    with open(os.path.join(TESTS, "golden_cli_help.json")) as handle:
        recorded = json.load(handle)
    assert len(recorded) == 14
    for command, text in recorded.items():
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == text, command

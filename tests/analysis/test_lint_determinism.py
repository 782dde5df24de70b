"""The linter must hold itself to the replay standard.

Two complete runs over the repository tree must produce byte-identical
JSON reports — the same property :mod:`repro.check` demands of the
protocol, asserted here so `tests/check`-style flakiness can never
creep into the lint gate itself.
"""

import os
import subprocess
import sys

from repro.analysis import lint
from repro.analysis.report import render_json

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
SRC = os.path.join(REPO_ROOT, "src", "repro")


def test_two_in_process_runs_are_byte_identical(repo_lint):
    second = lint([SRC])
    assert render_json(repo_lint) == render_json(second)


def test_two_subprocess_runs_are_byte_identical():
    """Fresh interpreters (fresh hash seeds) must agree byte for byte.

    On one subtree: CI's lint job does the same `cmp` over the whole
    of ``src/repro``.
    """
    def run():
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env.pop("PYTHONHASHSEED", None)
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", os.path.join(SRC, "gcs"), "--format", "json"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )

    first, second = run(), run()
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_report_embeds_no_wall_clock(repo_lint):
    """No timestamps or durations in the report (they would break the
    byte-identical guarantee)."""
    text = render_json(repo_lint)
    for banned in ("time", "date", "elapsed", "duration"):
        assert '"{}":'.format(banned) not in text

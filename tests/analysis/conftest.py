"""Shared fixtures of the analysis tests."""

import json
import os

import pytest

from helpers import shared

from repro.analysis import LintConfig, Linter, load_project, render_state_machines
from repro.analysis.report import render_json
from repro.cli import main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro")


@pytest.fixture(scope="session")
def repo_lint():
    """One lint of all of ``src/repro``, for every test that only reads it."""
    yield from shared(Linter(LintConfig()).run([os.path.normpath(SRC)]), snapshot=render_json)


@pytest.fixture(scope="session")
def state_machines():
    """``src/repro``'s state machines as ``lint --state-machines`` prints them.

    Extracted once per session; text, so no test can change another's copy.
    """
    config = LintConfig()
    project = load_project([os.path.normpath(SRC)], config)
    return json.dumps(render_state_machines(project, config), indent=2, sort_keys=True)


@pytest.fixture(scope="session")
def cli_state_machines():
    """``(exit code, stdout)`` of ``repro lint src/repro --state-machines``.

    The session's second render, so tests can hold the two to each other.
    """
    lines = []
    code = main(["lint", os.path.normpath(SRC), "--state-machines"], out=lines.append)
    return code, "\n".join(str(line) for line in lines)

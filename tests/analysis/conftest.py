"""Shared fixtures of the analysis tests."""

import os

import pytest

from repro.analysis import LintConfig, Linter

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro")


@pytest.fixture(scope="session")
def repo_lint():
    """One lint of all of ``src/repro``, for every test that only reads it."""
    return Linter(LintConfig()).run([os.path.normpath(SRC)])

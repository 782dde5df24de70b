"""Every rule: at least one failing and one passing fixture.

The fixtures under ``tests/analysis/fixtures/`` are parsed, never
imported; each known-bad file must trip exactly its own rule and each
known-good file must be clean under the *full* rule set (so the CLI
exit-code tests can reuse them).
"""

import os

import pytest

from repro.analysis import LintConfig, Linter, get_rule
from repro.analysis.statemachine import StateMachineSpec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def fixture_config():
    """A LintConfig aimed at the fixture tree instead of src/repro."""
    return LintConfig(
        state_machines=[
            StateMachineSpec("fixture.proto003_bad", "states", "proto003_bad.py", "Machine"),
            StateMachineSpec("fixture.proto003_good", "states", "proto003_good.py", "Machine"),
        ],
    )


def run_rule(code, paths):
    linter = Linter(fixture_config(), rules=[get_rule(code)])
    result = linter.run(paths)
    assert not result.parse_errors, result.parse_errors
    return result.findings


CASES = [
    ("PROTO003", "proto003_bad.py", "proto003_good.py"),
]
# Each case is named after its fixtures.
CASE_IDS = [bad.split("_")[0].upper() for _, bad, _ in CASES]


@pytest.mark.parametrize("code,bad,good", CASES, ids=CASE_IDS)
def test_rule_flags_bad_fixture(code, bad, good):
    findings = run_rule(code, [fixture(bad)])
    assert findings, "expected {} findings in {}".format(code, bad)
    assert all(f.rule == code for f in findings)


@pytest.mark.parametrize("code,bad,good", CASES, ids=CASE_IDS)
def test_rule_passes_good_fixture(code, bad, good):
    findings = run_rule(code, [fixture(good)])
    assert findings == [], "unexpected findings: {}".format(findings)


@pytest.mark.parametrize("code,bad,good", CASES, ids=CASE_IDS)
def test_good_fixture_clean_under_full_rule_set(code, bad, good):
    linter = Linter(fixture_config())
    result = linter.run([fixture(good)])
    assert result.findings == [], result.findings


def test_proto003_flags_foreign_and_nonconstant_writes():
    findings = run_rule("PROTO003", [fixture("proto003_bad.py")])
    assert len(findings) == 2, findings
    messages = "\n".join(f.message for f in findings)
    assert "peer" in messages
    assert "non-constant" in messages

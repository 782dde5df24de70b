"""PROTO003 on its known-bad and known-good fixture.

The fixtures under ``tests/analysis/fixtures/`` are parsed, never
imported; the known-bad file must trip the rule and the known-good file
must be clean (so the CLI exit-code tests can reuse them).
"""

import os

import pytest

from repro.analysis import lint
from repro.analysis.statemachine import StateMachineSpec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: The state machines of the fixture tree, in place of src/repro's.
FIXTURE_MACHINES = (
    StateMachineSpec("fixture.proto003_bad", "states", "proto003_bad.py", "Machine"),
    StateMachineSpec("fixture.proto003_good", "states", "proto003_good.py", "Machine"),
)


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_rule(paths):
    result = lint(paths, FIXTURE_MACHINES)
    assert not result.parse_errors, result.parse_errors
    return result.findings


CASES = [
    ("PROTO003", "proto003_bad.py", "proto003_good.py"),
]
# Each case is named after its fixtures.
CASE_IDS = [bad.split("_")[0].upper() for _, bad, _ in CASES]


@pytest.mark.parametrize("code,bad,good", CASES, ids=CASE_IDS)
def test_rule_flags_bad_fixture(code, bad, good):
    findings = run_rule([fixture(bad)])
    assert findings, "expected {} findings in {}".format(code, bad)
    assert all(f.rule == code for f in findings)


@pytest.mark.parametrize("code,bad,good", CASES, ids=CASE_IDS)
def test_rule_passes_good_fixture(code, bad, good):
    findings = run_rule([fixture(good)])
    assert findings == [], "unexpected findings: {}".format(findings)


@pytest.mark.parametrize("code,bad,good", CASES, ids=CASE_IDS)
def test_good_fixture_clean_under_full_rule_set(code, bad, good):
    result = lint([fixture(good)], FIXTURE_MACHINES)
    assert result.ok, (result.findings, result.parse_errors)
    assert result.suppressed == [], result.suppressed


def test_proto003_flags_foreign_and_nonconstant_writes():
    findings = run_rule([fixture("proto003_bad.py")])
    assert len(findings) == 2, findings
    messages = "\n".join(f.message for f in findings)
    assert "peer" in messages
    assert "non-constant" in messages

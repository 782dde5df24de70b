"""Every rule: at least one failing and one passing fixture.

The fixtures under ``tests/analysis/fixtures/`` are parsed, never
imported; each known-bad file must trip exactly its own rule and each
known-good file must be clean under the *full* rule set (so the CLI
exit-code tests can reuse them). A fixture keeps the name of the rule
it was written for; rules that were folded into a neighbour left their
fixtures to the neighbour, which must find exactly what they found.
"""

import os
import shutil

import pytest

from repro.analysis import LintConfig, Linter, get_rule
from repro.analysis.statemachine import StateMachineSpec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro")


def fixture(name):
    return os.path.join(FIXTURES, name)


def fixture_config():
    """A LintConfig aimed at the fixture tree instead of src/repro."""
    dispatchers = [
        StateMachineSpec(
            "fixture." + tree,
            "dispatch",
            tree + "/daemon.py",
            "Daemon",
            dispatcher="on_datagram",
            messages=tree + "/messages.py",
        )
        for tree in ("proto001_bad", "proto001_good")
    ]
    return LintConfig(
        sim_restricted=["fixtures"],
        state_machines=dispatchers
        + [
            StateMachineSpec(
                "fixture.proto002_bad", "states", "proto002_bad.py", "Machine"
            ),
            StateMachineSpec(
                "fixture.proto002_good", "states", "proto002_good.py", "Machine"
            ),
            StateMachineSpec(
                "fixture.proto003_bad", "states", "proto003_bad.py", "Machine"
            ),
            StateMachineSpec(
                "fixture.proto003_good", "states", "proto003_good.py", "Machine"
            ),
        ],
    )


def run_rule(code, paths):
    linter = Linter(fixture_config(), rules=[get_rule(code)])
    result = linter.run(paths)
    assert not result.parse_errors, result.parse_errors
    return result.findings


CASES = [
    ("DET001", "det001_bad.py", "det001_good.py"),
    ("DET001", "det002_bad.py", "det002_good.py"),
    ("DET003", "det003_bad.py", "det003_good.py"),
    ("DET003", "det004_bad.py", "det004_good.py"),
    ("DET005", "det005_bad.py", "det005_good.py"),
    ("SHARD001", "det006_bad.py", "det006_good.py"),
    ("PROTO002", "proto001_bad", "proto001_good"),
    ("PROTO002", "proto002_bad.py", "proto002_good.py"),
    ("PROTO003", "proto003_bad.py", "proto003_good.py"),
    ("SHARD001", "shard001_bad.py", "shard001_good.py"),
    ("DET001", "sim001_bad.py", "sim001_good.py"),
]
# Each case is named after its fixtures, which keep their original rule's name.
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


def test_det001_counts():
    findings = run_rule("DET001", [fixture("det001_bad.py")])
    # time.time, monotonic x2, datetime.now
    assert len(findings) == 4


def test_det003_flags_each_escape_shape():
    findings = run_rule("DET003", [fixture("det003_bad.py")])
    lines = {f.line for f in findings}
    # list(set), for-over-frozenset w/ append, join(setcomp),
    # listcomp-over-set, .values() loop w/ update, .items() loop w/
    # append, tuple(set attr)
    assert len(findings) >= 7, findings
    assert len(lines) >= 7


@pytest.mark.parametrize(
    "code,bad,count",
    [
        # import random, from random import choice/shuffle, random.uniform
        ("DET001", "det002_bad.py", 3),
        # key=lambda: id(), key=id, hash() in a key, id() < id() (two sides)
        ("DET003", "det004_bad.py", 5),
        # import socket, import threading, from asyncio import ...
        ("DET001", "sim001_bad.py", 3),
    ],
    ids=["DET002", "DET004", "SIM001"],
)
def test_folded_fixture_keeps_its_count(code, bad, count):
    findings = run_rule(code, [fixture(bad)])
    assert len(findings) == count, findings


def test_proto001_names_the_missing_class():
    findings = run_rule("PROTO002", [fixture("proto001_bad")])
    assert len(findings) == 1
    assert "PingMsg" in findings[0].message
    assert findings[0].path.endswith("proto001_bad/daemon.py")


def test_proto001_not_wire_marker_opts_out():
    findings = run_rule("PROTO002", [fixture("proto001_bad")])
    assert all("SessionView" not in f.message for f in findings)


def test_sim001_only_applies_inside_restricted_dirs():
    config = LintConfig(sim_restricted=["somewhere/else"])
    linter = Linter(config, rules=[get_rule("DET001")])
    result = linter.run([fixture("sim001_bad.py")])
    assert result.findings == []


def test_det005_flags_each_leak_shape():
    findings = run_rule("DET005", [fixture("det005_bad.py")])
    messages = "\n".join(f.message for f in findings)
    assert "another object's method" in messages
    assert "captured by `DropModel(...)`" in messages
    assert "escapes through `stash`" in messages
    assert "unseeded Random()" in messages
    assert len(findings) == 8, findings


def test_det005_follows_a_stream_aliased_inside_a_block():
    findings = run_rule("DET005", [fixture("det005_bad.py")])
    lines = {f.line for f in findings if "`self.model.consume`" in f.message}
    # one inside an `if`, one inside a `with`
    assert {34, 39} <= lines, findings


def test_det005_follows_a_stream_carried_around_a_loop():
    findings = run_rule("DET005", [fixture("det005_bad.py")])
    # carried one iteration, and through a second name over two
    assert {45, 52} <= {f.line for f in findings}, findings


def test_det003_reports_a_nested_class_method_once(tmp_path):
    path = tmp_path / "nested.py"
    path.write_text(
        "class Outer:\n"
        "    class Inner:\n"
        "        def emit(self, out):\n"
        "            for peer in {1, 2}:\n"
        "                out.append(peer)\n"
    )
    findings = Linter(LintConfig(), rules=[get_rule("DET003")]).run([str(path)]).findings
    assert [(f.rule, f.line) for f in findings] == [("DET003", 4)]


def test_det006_counts_defaults_and_class_containers():
    findings = run_rule("SHARD001", [fixture("det006_bad.py")])
    # class-level list, mutable positional default, mutable kw-only default
    assert len(findings) == 3, findings


def test_shard001_names_both_reaching_classes():
    findings = run_rule("SHARD001", [fixture("shard001_bad.py")])
    messages = "\n".join(f.message for f in findings)
    assert "`global _TOTAL` rebind" in messages
    assert "Alpha" in messages and "Beta" in messages
    assert "Registry.instances" in messages


def test_proto002_names_the_missing_state():
    findings = run_rule("PROTO002", [fixture("proto002_bad.py")])
    assert len(findings) == 1, findings
    assert "syncing" in findings[0].message


def test_proto003_flags_foreign_and_nonconstant_writes():
    findings = run_rule("PROTO003", [fixture("proto003_bad.py")])
    assert len(findings) == 2, findings
    messages = "\n".join(f.message for f in findings)
    assert "peer" in messages
    assert "non-constant" in messages


def test_rules_on_repo_protocol_defaults(tmp_path):
    """PROTO002 holds core.daemon to every core message: deleting one
    `_on_message` arm from a copy of the daemon must fire."""
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    for name in ("daemon.py", "messages.py"):
        shutil.copy(os.path.join(SRC, "core", name), str(core / name))
    linter = Linter(LintConfig(), rules=[get_rule("PROTO002")])
    assert linter.run([str(tmp_path)]).findings == []
    arm = (
        "        elif isinstance(payload, MatureMsg):\n"
        "            self._on_mature_msg(payload)\n"
    )
    source = (core / "daemon.py").read_text()
    assert source.count(arm) == 1
    (core / "daemon.py").write_text(source.replace(arm, ""))
    findings = linter.run([str(tmp_path)]).findings
    assert len(findings) == 1, findings
    assert "MatureMsg" in findings[0].message and "core.daemon" in findings[0].message


def edge_config(**overrides):
    """fixture_config plus a scoped sim_edge allowance."""
    config = fixture_config()
    return LintConfig(
        sim_restricted=config.sim_restricted,
        state_machines=config.state_machines,
        **overrides
    )


def test_sim001_edge_allowance_is_per_file_with_reason():
    config = edge_config(
        sim_edge=(("sim001_bad.py", "declared process-boundary module"),)
    )
    linter = Linter(config, rules=[get_rule("DET001")])
    result = linter.run([fixture("sim001_bad.py")])
    assert result.findings == []
    # The reason is on record for exactly that file, nothing else.
    assert config.edge_reason("fixtures/sim001_bad.py") == (
        "declared process-boundary module"
    )
    assert config.edge_reason("fixtures/other.py") is None
    # Suffix matching is per path segment: no accidental widening.
    assert config.edge_reason("fixtures/prefix_sim001_bad.py") is None


def test_shard001_edge_allowance_skips_scope():
    config = edge_config(sim_edge=(("shard001_bad.py", "worker pool"),))
    linter = Linter(config, rules=[get_rule("SHARD001")])
    result = linter.run([fixture("shard001_bad.py")])
    assert result.findings == []


def test_default_sim_edge_names_only_the_worker_pool():
    from repro.analysis.engine import DEFAULT_SIM_EDGE

    config = LintConfig()
    assert [suffix for suffix, _ in DEFAULT_SIM_EDGE] == [
        "repro/sim/shard/pool.py"
    ]
    for suffix, reason in DEFAULT_SIM_EDGE:
        assert reason  # every allowance carries its justification
    # The rest of the shard package stays fully restricted.
    assert config.edge_reason("src/repro/sim/shard/pool.py") is not None
    assert config.edge_reason("src/repro/sim/shard/kernel.py") is None
    assert config.edge_reason("src/repro/sim/shard/merge.py") is None

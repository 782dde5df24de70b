"""Engine mechanics: suppressions, reporters, the module index."""

import ast
import json
import os

from repro.analysis import lint
from repro.analysis.engine import ModuleIndex, collect_files
from repro.analysis.report import render_json, render_text
from repro.analysis.statemachine import StateMachineSpec
from repro.analysis.suppress import is_suppressed, parse_suppressions

#: A PROTO003 finding on the last line of a snippet: a foreign write.
MACHINE = "class Machine:\n    def poke(self, peer):\n"
WRITE = "        peer.state = 1"


def _lint_source(tmp_path, *lines):
    """Lint a machine whose method body is ``lines`` (each a foreign write)."""
    path = tmp_path / "snippet.py"
    path.write_text(MACHINE + "".join(line + "\n" for line in lines))
    spec = StateMachineSpec("snippet", "states", "snippet.py", "Machine")
    return lint([str(path)], [spec])


class TestSuppressions:
    def test_allow_comment_suppresses_the_named_rule(self, tmp_path):
        result = _lint_source(tmp_path, WRITE + "  # repro: allow proto003")
        assert result.findings == []
        assert len(result.suppressed) == 1
        assert result.ok

    def test_allow_comment_is_rule_specific(self, tmp_path):
        table = parse_suppressions([WRITE + "  # repro: allow det003"])
        assert not is_suppressed(table, 1, "PROTO003")
        result = _lint_source(tmp_path, WRITE + "  # repro: allow nope999")
        assert len(result.findings) == 1
        assert not result.ok

    def test_allow_star_suppresses_everything(self, tmp_path):
        result = _lint_source(tmp_path, WRITE + "  # repro: allow *")
        assert result.findings == []

    def test_allow_comment_covers_multiple_rules(self):
        table = parse_suppressions(["x = 1  # repro: allow det001, det003"])
        assert is_suppressed(table, 1, "DET001")
        assert is_suppressed(table, 1, "det003")
        assert not is_suppressed(table, 1, "DET005")
        assert not is_suppressed(table, 2, "DET001")

    def test_allow_comment_accepts_a_reason_suffix(self, tmp_path):
        result = _lint_source(
            tmp_path, WRITE + "  # repro: allow PROTO003 -- a fault injector, on purpose"
        )
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_reason_suffix_does_not_widen_the_allowance(self):
        table = parse_suppressions(
            ["x = 1  # repro: allow det001 -- det003 mentioned in prose"]
        )
        assert is_suppressed(table, 1, "DET001")
        assert not is_suppressed(table, 1, "DET003")


class TestReporters:
    def test_json_report_is_valid_and_sorted(self, tmp_path):
        result = _lint_source(tmp_path, WRITE, WRITE)
        payload = json.loads(render_json(result))
        assert payload["format"] == "repro-lint/1"
        assert payload["summary"]["findings"] == 2
        locations = [(f["path"], f["line"]) for f in payload["findings"]]
        assert locations == sorted(locations)

    def test_text_report_names_rule_and_location(self, tmp_path):
        result = _lint_source(tmp_path, WRITE)
        text = render_text(result)
        assert "PROTO003" in text
        assert "snippet.py:3:" in text
        assert "FAILED" in text

    def test_clean_text_report(self, tmp_path):
        result = _lint_source(tmp_path, "        pass")
        assert "clean" in render_text(result)


class TestParseErrors:
    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        result = lint([str(path)])
        assert len(result.parse_errors) == 1
        assert result.parse_errors[0].rule == "PARSE"
        assert not result.ok

    def test_allow_naming_no_rule_is_reported_like_a_syntax_error(self, tmp_path):
        # DET001 was deleted: its allowance would suppress nothing.
        result = _lint_source(tmp_path, WRITE + "  # repro: allow det001, proto003")
        assert result.findings == [] and len(result.suppressed) == 1
        (error,) = result.parse_errors
        assert (error.rule, error.line) == ("PARSE", 3)
        assert "det001" in error.message and "proto003" not in error.message
        assert not result.ok


def test_collect_files_is_sorted_and_unique(tmp_path):
    (tmp_path / "b.py").write_text("")
    (tmp_path / "a.py").write_text("")
    sub = tmp_path / "pkg"
    os.makedirs(str(sub))
    (sub / "c.py").write_text("")
    files = collect_files([str(tmp_path), str(tmp_path / "a.py")])
    assert files == sorted(files)
    assert len(files) == len(set(files)) == 3


GCS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro", "gcs")


def test_index_walks_any_subtree_in_ast_walk_order():
    with open(os.path.join(GCS, "membership.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    index = ModuleIndex(tree)
    assert index.nodes == list(ast.walk(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.expr)):
            assert index.walk(node) == list(ast.walk(node))


def test_lint_traverses_each_module_once(monkeypatch):
    """PROTO003 reads the module index instead of walking the tree: linting
    src/repro/gcs enters ast.iter_child_nodes at most twice per node."""
    nodes = 0
    for path in collect_files([GCS]):
        with open(path, encoding="utf-8") as handle:
            nodes += len(list(ast.walk(ast.parse(handle.read()))))
    entered = [0]
    iter_child_nodes = ast.iter_child_nodes

    def counting(node):
        entered[0] += 1
        return iter_child_nodes(node)

    monkeypatch.setattr(ast, "iter_child_nodes", counting)
    lint([GCS])
    assert entered[0] <= 2 * nodes, (entered[0], nodes)

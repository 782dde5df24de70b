"""The lint engine: file collection, parsing, PROTO003, filtering.

The engine is deliberately free of wall-clock state: given the same
tree and the same state machines, two runs produce byte-identical
reports (a property :mod:`tests.analysis` asserts), mirroring the
replay guarantee the linted code itself must uphold.
"""

import ast
import os

from repro.analysis.proto003 import CODE, protocol_field_writes
from repro.analysis.statemachine import DEFAULT_STATE_MACHINES, extract_machines
from repro.analysis.suppress import is_suppressed, parse_suppressions


class Finding:
    """One rule violation (or parse error) at one source location."""

    __slots__ = ("rule", "path", "line", "col", "message", "snippet")

    def __init__(self, rule, path, line, col, message, snippet=""):
        self.rule = rule
        self.path = path
        self.line = int(line)
        self.col = int(col)
        self.message = message
        self.snippet = snippet

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def __repr__(self):
        return "Finding({} {}:{}:{})".format(self.rule, self.path, self.line, self.col)


class ModuleIndex:
    """One breadth-first traversal of a module, read by PROTO003 and the
    state-machine extraction.

    ``nodes`` is every node in ``ast.walk`` order. A subtree's nodes at
    each depth are one contiguous run of ``nodes``, so :meth:`walk`
    slices out any subtree in that order: the tree is traversed once per
    run, however many readers walk it.
    """

    __slots__ = ("nodes", "_position", "_first_child")

    def __init__(self, tree):
        iter_children = ast.iter_child_nodes
        nodes = [tree]
        position = {tree: 0}
        first_child = []
        for node in nodes:
            first_child.append(len(nodes))
            for child in iter_children(node):
                position[child] = len(nodes)
                nodes.append(child)
        first_child.append(len(nodes))
        self.nodes, self._position, self._first_child = nodes, position, first_child

    def walk(self, node):
        """``list(ast.walk(node))`` for any node of this module."""
        low = self._position[node]
        high = low + 1
        out = []
        while low < high:
            out.extend(self.nodes[low:high])
            low, high = self._first_child[low], self._first_child[high]
        return out


class ModuleContext:
    """One parsed source file plus its suppression table."""

    __slots__ = ("path", "lines", "tree", "suppressions", "_index")

    def __init__(self, path, source, tree):
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree
        self.suppressions = parse_suppressions(self.lines)
        self._index = None

    @property
    def index(self):
        """The module's :class:`ModuleIndex`, built on first use."""
        if self._index is None:
            self._index = ModuleIndex(self.tree)
        return self._index

    def line_text(self, number):
        """The 1-based source line, or '' when out of range."""
        if 1 <= number <= len(self.lines):
            return self.lines[number - 1]
        return ""

    def finding(self, rule, node_or_line, message):
        """Build a Finding anchored at an AST node or a line number."""
        if isinstance(node_or_line, int):
            line, col = node_or_line, 0
        else:
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0)
        return Finding(rule, self.path, line, col, message, self.line_text(line))


class LintResult:
    """The outcome of one lint run."""

    __slots__ = ("findings", "suppressed", "files", "parse_errors")

    def __init__(self, findings, suppressed, files, parse_errors):
        self.findings = findings
        self.suppressed = suppressed
        self.files = files
        self.parse_errors = parse_errors

    @property
    def ok(self):
        return not self.findings and not self.parse_errors


def collect_files(paths):
    """Expand files/directories into a sorted, de-duplicated .py list.

    Paths under the current working directory are relativized, so the
    report reads the same whether the target was spelled absolutely or
    relatively.
    """
    found = []
    for path in paths:
        path = str(path)
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            found.append(path)
    cwd = os.getcwd()
    normalized = []
    for path in found:
        path = os.path.normpath(os.path.abspath(path))
        if path.startswith(cwd + os.sep):
            path = os.path.relpath(path, cwd)
        normalized.append(path)
    return [p.replace(os.sep, "/") for p in sorted(set(normalized))]


def load_project(paths):
    """Parse ``paths`` into a list of :class:`ModuleContext` without linting.

    Unparseable files are silently skipped — callers that need the
    syntax errors reported call :func:`lint` instead. This is the entry
    point for artifact generation (``repro lint --state-machines``)
    where only the parsed tree matters.
    """
    modules, _ = _parse(collect_files(paths))
    return modules


def _parse(files):
    """The parsed modules of ``files``, and a PARSE finding per syntax error."""
    modules = []
    errors = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            message = "syntax error: {}".format(exc.msg)
            errors.append(Finding("PARSE", path, exc.lineno or 1, (exc.offset or 1) - 1, message))
            continue
        modules.append(ModuleContext(path, source, tree))
    return modules, errors


def lint(paths, state_machines=DEFAULT_STATE_MACHINES):
    """Run PROTO003 over ``paths`` against ``state_machines``.

    The default names this repository's machines; tests aim the rule at
    their fixture tree through ``state_machines``.
    """
    files = collect_files(paths)
    modules, parse_errors = _parse(files)
    for module in modules:
        # An allowance naming no rule suppresses nothing, silently:
        # report it like a syntax error.
        for line in sorted(module.suppressions):
            for code in sorted(module.suppressions[line] - {CODE.lower(), "*"}):
                parse_errors.append(
                    module.finding(
                        "PARSE", line, "`# repro: allow {}` names no rule".format(code)
                    )
                )

    by_path = {module.path: module for module in modules}
    findings = []
    suppressed = []
    machines = extract_machines(modules, state_machines)
    for finding in protocol_field_writes(machines):
        if is_suppressed(by_path[finding.path].suppressions, finding.line, finding.rule):
            suppressed.append(finding)
        else:
            findings.append(finding)

    findings.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    parse_errors.sort(key=Finding.sort_key)
    return LintResult(findings, suppressed, files, parse_errors)

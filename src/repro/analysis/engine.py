"""The lint engine: file collection, parsing, rule dispatch, filtering.

The engine is deliberately free of wall-clock state: given the same
tree and the same configuration, two runs produce byte-identical
reports (a property :mod:`tests.analysis` asserts), mirroring the
replay guarantee the linted code itself must uphold.
"""

import ast
import os

from repro.analysis.callgraph import CallGraph, SymbolTable
from repro.analysis.dataflow import ProjectDataflow
from repro.analysis.findings import Finding
from repro.analysis.registry import all_rules
from repro.analysis.statemachine import DEFAULT_STATE_MACHINES, extract_machines
from repro.analysis.suppress import is_suppressed, parse_suppressions


# The simulated substrate: everything here must stay single-threaded
# and virtual-time, so DET001 forbids real concurrency and sockets.
DEFAULT_SIM_RESTRICTED = (
    "repro/core",
    "repro/gcs",
    "repro/sim",
    "repro/net",
    "repro/obs",
    "repro/flow",
    "repro/bench",
)

# The one module that owns the randomness primitives: DET001 lets it
# import `random`, DET005 lets it hand streams out.
RNG_OWNER = "repro/sim/rng.py"

# Edge infrastructure inside the substrate tree: modules that sit on
# the process boundary by design and therefore carry a *scoped*
# DET001/SHARD001 allowance, each with its reason on record. Scoped
# means the whole allowance names one file; everything else under
# repro/sim stays fully restricted, so a stray `import threading` two
# files over still fails the lint gate.
DEFAULT_SIM_EDGE = (
    (
        "repro/sim/shard/pool.py",
        "sharded-run worker pool: forks one interpreter process per "
        "shard, which builds and runs its own Simulation and sends back "
        "one reply of picklable artifacts; no simulated state crosses "
        "the boundary (DESIGN.md §10)",
    ),
)


class LintConfig:
    """Per-run knobs; defaults encode this repository's layout."""

    __slots__ = ("sim_restricted", "sim_edge", "state_machines")

    def __init__(
        self,
        sim_restricted=DEFAULT_SIM_RESTRICTED,
        sim_edge=DEFAULT_SIM_EDGE,
        state_machines=DEFAULT_STATE_MACHINES,
    ):
        self.sim_restricted = tuple(sim_restricted)
        self.sim_edge = tuple((suffix, reason) for suffix, reason in sim_edge)
        self.state_machines = tuple(state_machines)

    @property
    def shard_scope(self):
        """Where SHARD001 and DET005 look: the substrate plus the campaign
        runner, whose worker pool is the template a multi-core kernel
        generalizes.
        """
        return self.sim_restricted + ("repro/check",)

    def edge_reason(self, path):
        """The recorded allowance reason for an edge module, or None.

        DET001 and SHARD001 consult this before scanning: a path listed
        in ``sim_edge`` is process-boundary infrastructure whose real
        concurrency is the point, not a leak.
        """
        for suffix, reason in self.sim_edge:
            if path_matches(path, suffix):
                return reason
        return None


def path_matches(path, suffix):
    """Posix suffix match on whole path segments."""
    path = path.replace(os.sep, "/")
    suffix = suffix.rstrip("/")
    return path == suffix or path.endswith("/" + suffix)


def path_in_dir(path, prefix):
    """True when ``path`` lies under a directory ending in ``prefix``."""
    path = path.replace(os.sep, "/")
    prefix = prefix.strip("/")
    return path.startswith(prefix + "/") or "/{}/".format(prefix) in path


def path_in_scope(path, prefixes):
    """True when ``path`` is, or lies under, one of ``prefixes``."""
    return any(path_in_dir(path, p) or path_matches(path, p) for p in prefixes)


FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPE_DEFS = FUNCTION_DEFS + (ast.ClassDef,)


class ModuleIndex:
    """One breadth-first traversal of a module, read by every rule.

    ``nodes`` is every node in ``ast.walk`` order and ``parents`` maps a
    node to its parent. A subtree's nodes at each depth are one
    contiguous run of ``nodes``, so :meth:`walk` slices out any subtree
    in that order: the tree is traversed once per run, however many
    rules read it.
    """

    __slots__ = ("nodes", "parents", "_position", "_first_child", "_own")

    def __init__(self, tree):
        iter_children = ast.iter_child_nodes
        nodes = [tree]
        position = {tree: 0}
        parents = {}
        first_child = []
        # Scope node -> its own nodes; a class body belongs to no scope.
        own: dict = {tree: []}
        bucket_of: list = [own[tree]]
        for index, node in enumerate(nodes):
            first_child.append(len(nodes))
            if isinstance(node, FUNCTION_DEFS):
                own[node] = []
                bucket = own[node]
            else:
                bucket = None if isinstance(node, ast.ClassDef) else bucket_of[index]
            for child in iter_children(node):
                position[child] = len(nodes)
                parents[child] = node
                nodes.append(child)
                bucket_of.append(bucket)
                if bucket is not None and not isinstance(child, SCOPE_DEFS):
                    bucket.append(child)
        first_child.append(len(nodes))
        self.nodes, self.parents, self._own = nodes, parents, own
        self._position, self._first_child = position, first_child

    def walk(self, node):
        """``list(ast.walk(node))`` for any node of this module."""
        low = self._position[node]
        high = low + 1
        out = []
        while low < high:
            out.extend(self.nodes[low:high])
            low, high = self._first_child[low], self._first_child[high]
        return out

    def scopes(self):
        """``(scope, innermost enclosing class or None)`` for the module
        and every function, in ``ast.walk`` order."""
        out = []
        for scope in self._own:
            owner = self.parents.get(scope)
            while owner is not None and not isinstance(owner, ast.ClassDef):
                owner = self.parents.get(owner)
            out.append((scope, owner))
        return out

    def scope_nodes(self, scope):
        """A scope's own nodes in ``ast.walk`` order: its header and body,
        not descending into nested function or class definitions."""
        return self._own[scope]


class ModuleContext:
    """One parsed source file plus its suppression table."""

    __slots__ = ("path", "source", "lines", "tree", "suppressions", "_index")

    def __init__(self, path, source, tree):
        self.path = path
        self.source = source
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


class ProjectContext:
    """All modules of one run, for cross-file rules.

    The flow analyses (symbol table, call graph, dataflow summaries,
    state-machine extraction) are built lazily on first use and shared
    by every rule in the run — each is a pure function of the parsed
    module set, so caching cannot leak state between runs.
    """

    __slots__ = ("modules", "config", "_symbols", "_callgraph", "_dataflow", "_machines")

    def __init__(self, modules, config=None):
        self.modules = list(modules)
        self.config = config or LintConfig()
        self._symbols = None
        self._callgraph = None
        self._dataflow = None
        self._machines = None

    def find(self, suffix):
        """The first module whose path matches ``suffix``, or None."""
        for module in self.modules:
            if path_matches(module.path, suffix):
                return module
        return None

    def symbols(self):
        """The project-wide :class:`~repro.analysis.callgraph.SymbolTable`."""
        if self._symbols is None:
            self._symbols = SymbolTable(self.modules)
        return self._symbols

    def callgraph(self):
        """The project-wide :class:`~repro.analysis.callgraph.CallGraph`."""
        if self._callgraph is None:
            self._callgraph = CallGraph(self.symbols())
        return self._callgraph

    def dataflow(self):
        """Per-function mutation/escape summaries with escape closure."""
        if self._dataflow is None:
            self._dataflow = ProjectDataflow(self.symbols(), self.callgraph())
        return self._dataflow

    def machines(self):
        """The extracted protocol state machines of this run."""
        if self._machines is None:
            self._machines = extract_machines(self, self.config)
        return self._machines


class LintResult:
    """The outcome of one lint run."""

    __slots__ = ("findings", "suppressed", "files", "rules", "parse_errors")

    def __init__(self, findings, suppressed, files, rules, parse_errors):
        self.findings = findings
        self.suppressed = suppressed
        self.files = files
        self.rules = rules
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


def load_project(paths, config=None):
    """Parse ``paths`` into a :class:`ProjectContext` without linting.

    Unparseable files are silently skipped — callers that need the
    syntax errors reported run the full :class:`Linter` instead. This
    is the entry point for artifact generation (``repro lint
    --state-machines``) where only the parsed tree matters.
    """
    modules, _ = _parse(collect_files(paths))
    return ProjectContext(modules, config or LintConfig())


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


class Linter:
    """Run every registered rule over a set of files."""

    def __init__(self, config=None, rules=None):
        self.config = config or LintConfig()
        self.rules = list(rules) if rules is not None else all_rules()

    def run(self, paths):
        """Lint ``paths``; returns a :class:`LintResult`."""
        registered = {rule.code.lower() for rule in all_rules()} | {"*"}
        files = collect_files(paths)
        modules, parse_errors = _parse(files)
        for module in modules:
            # An allowance naming no rule suppresses nothing, silently:
            # report it like a syntax error.
            for line in sorted(module.suppressions):
                for code in sorted(module.suppressions[line] - registered):
                    parse_errors.append(
                        module.finding(
                            "PARSE", line, "`# repro: allow {}` names no rule".format(code)
                        )
                    )

        raw = []
        project = ProjectContext(modules, self.config)
        for rule in self.rules:
            for module in modules:
                raw.extend(rule.check_module(module, self.config))
            raw.extend(rule.check_project(project, self.config))

        by_path = {module.path: module for module in modules}
        findings = []
        suppressed = []
        for finding in raw:
            module = by_path.get(finding.path)
            if module is not None and is_suppressed(
                module.suppressions, finding.line, finding.rule
            ):
                suppressed.append(finding)
            else:
                findings.append(finding)

        findings.sort(key=Finding.sort_key)
        suppressed.sort(key=Finding.sort_key)
        parse_errors.sort(key=Finding.sort_key)
        return LintResult(
            findings,
            suppressed,
            files,
            [rule.code for rule in self.rules],
            parse_errors,
        )

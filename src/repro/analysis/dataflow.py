"""Intraprocedural dataflow and conservative interprocedural summaries.

Two layers feed the flow-aware rules:

* :class:`ReachingTags` — a small flow-sensitive reaching-definitions
  lattice over one function body. Abstract values are *sets of tags*
  (supplied by a rule-specific classifier); the transfer function is
  assignment, the join at branch merges is set union, and loops are
  handled by running the body transfer twice (tags only accumulate, so
  two passes reach the fixed point of this monotone frame). DET005
  instantiates it with an "RNG stream" classifier to follow a stream
  from ``self.rng("x")`` through local aliases to the call where it
  escapes its component.

* :class:`ProjectDataflow` — per-function mutation/escape summaries
  (which ``self`` attributes a function writes, which module globals
  it mutates or rebinds, which of its parameters it stores beyond the
  call) plus an interprocedural fixed point propagating parameter
  escape through the call graph. Everything is conservative: an
  unresolved call neither creates nor hides an escape.

Like the call graph, every table here is built and iterated in sorted
order so two runs are structurally identical.
"""

import ast

MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "update",
        "setdefault",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "appendleft",
        "sort",
        "reverse",
    }
)

MUTABLE_LITERAL_CALLS = frozenset({"dict", "list", "set", "defaultdict", "deque"})


def is_mutable_container(node):
    """True for dict/list/set literals, comprehensions and constructors."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in MUTABLE_LITERAL_CALLS
    )


# ----------------------------------------------------------------------
# the intraprocedural lattice


class ReachingTags:
    """Reaching definitions over one function, tags as abstract values.

    ``classify(expr, env)`` returns a set of tags for an expression
    (empty when unremarkable); ``env`` maps local name -> frozenset of
    tags at the current program point. The analysis records, for every
    expression node visited, the environment in effect *before* it —
    rules then query :meth:`tags_of` at the nodes they care about.
    """

    def __init__(self, func_node, classify):
        self.classify = classify
        self._env_at = {}
        env = {}
        # Two monotone passes: the second sees loop-carried bindings.
        for _ in range(2):
            env = self._run_block(func_node.body, dict(env))

    # ------------------------------------------------------------------

    def tags_of(self, node, env=None):
        """Tags reaching ``node`` (an expression), resolved via its env."""
        if env is None:
            env = self._env_at.get(id(node), {})
        direct = self.classify(node, env)
        if direct:
            return frozenset(direct)
        if isinstance(node, ast.Name):
            return env.get(node.id, frozenset())
        return frozenset()

    # ------------------------------------------------------------------

    def _run_block(self, statements, env):
        for statement in statements:
            env = self._run_statement(statement, env)
        return env

    def _run_statement(self, node, env):
        self._record(node, env)
        if isinstance(node, ast.Assign):
            tags = self.tags_of(node.value, env)
            for target in node.targets:
                env = self._bind(target, tags, env)
            return env
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            return self._bind(node.target, self.tags_of(node.value, env), env)
        if isinstance(node, ast.AugAssign):
            return env
        if isinstance(node, ast.If):
            then_env = self._run_block(node.body, dict(env))
            else_env = self._run_block(node.orelse, dict(env))
            return _join(then_env, else_env)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            body_env = self._run_block(node.body, dict(env))
            body_env = self._run_block(node.orelse, body_env)
            return _join(env, body_env)
        if isinstance(node, ast.While):
            body_env = self._run_block(node.body, dict(env))
            body_env = self._run_block(node.orelse, body_env)
            return _join(env, body_env)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return self._run_block(node.body, env)
        if isinstance(node, ast.Try):
            out = self._run_block(node.body, dict(env))
            for handler in node.handlers:
                out = _join(out, self._run_block(handler.body, dict(env)))
            out = self._run_block(node.orelse, out)
            return self._run_block(node.finalbody, out)
        return env

    def _bind(self, target, tags, env):
        if isinstance(target, ast.Name):
            env = dict(env)
            if tags:
                env[target.id] = frozenset(tags)
            else:
                env.pop(target.id, None)
            return env
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                env = self._bind(element, frozenset(), env)
        return env

    def _record(self, statement, env):
        frozen = dict(env)
        for node in ast.walk(statement):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if id(node) not in self._env_at:
                self._env_at[id(node)] = frozen


def _join(left, right):
    out = dict(left)
    for name, tags in right.items():
        out[name] = out.get(name, frozenset()) | tags
    return out


# ----------------------------------------------------------------------
# per-function summaries


class FunctionSummary:
    """What one function does to state beyond its own locals."""

    __slots__ = (
        "qualname",
        "self_writes",
        "self_mutations",
        "global_mutations",
        "global_rebinds",
        "escaping_params",
    )

    def __init__(self, qualname):
        self.qualname = qualname
        # attribute names assigned via ``self.x = ...``
        self.self_writes = set()
        # attribute names mutated via ``self.x.append(...)`` / ``self.x[k] = ...``
        self.self_mutations = set()
        # module-global names mutated in place (with the owning module path)
        self.global_mutations = set()
        # names rebound through a ``global`` declaration
        self.global_rebinds = set()
        # parameter names stored into attributes/globals/containers
        self.escaping_params = set()

    def to_dict(self):
        return {
            "qualname": self.qualname,
            "self_writes": sorted(self.self_writes),
            "self_mutations": sorted(self.self_mutations),
            "global_mutations": sorted(self.global_mutations),
            "global_rebinds": sorted(self.global_rebinds),
            "escaping_params": sorted(self.escaping_params),
        }


def summarize_function(func_info, module_globals):
    """Build a :class:`FunctionSummary` for one function.

    ``module_globals`` is the set of module-level names of the
    function's own module that hold mutable containers — only those
    can be mutated in place.
    """
    summary = FunctionSummary(func_info.qualname)
    node = func_info.node
    params = {arg.arg for arg in node.args.args + node.args.kwonlyargs}
    params.discard("self")
    declared_global = set()
    for item in _function_nodes(node):
        if isinstance(item, ast.Global):
            declared_global.update(item.names)
            summary.global_rebinds.update(item.names)
        elif isinstance(item, ast.Assign) or isinstance(item, ast.AugAssign):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            for target in targets:
                _record_store(summary, target, module_globals, declared_global)
            value = item.value
            for name in _captured_names(value):
                if name in params and _stores_into_state(item, module_globals):
                    summary.escaping_params.add(name)
        elif isinstance(item, ast.Call):
            _record_call(summary, item, module_globals, params)
    return summary


def _function_nodes(func_node):
    """Walk a function body without descending into nested defs."""
    stack = list(func_node.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _record_store(summary, target, module_globals, declared_global):
    if isinstance(target, ast.Attribute):
        base = target.value
        if isinstance(base, ast.Name) and base.id == "self":
            summary.self_writes.add(target.attr)
    elif isinstance(target, ast.Subscript):
        base = target.value
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if base.value.id == "self":
                summary.self_mutations.add(base.attr)
        elif isinstance(base, ast.Name):
            if base.id in module_globals and base.id not in declared_global:
                summary.global_mutations.add(base.id)
    elif isinstance(target, ast.Name):
        if target.id in declared_global:
            summary.global_rebinds.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _record_store(summary, element, module_globals, declared_global)


def _record_call(summary, call, module_globals, params):
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in MUTATING_METHODS:
        return
    base = func.value
    if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
        if base.value.id == "self":
            summary.self_mutations.add(base.attr)
    elif isinstance(base, ast.Name) and base.id in module_globals:
        summary.global_mutations.add(base.id)
    # a parameter fed directly to a mutating container call escapes
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for name in _captured_names(arg):
            if name in params and isinstance(base, (ast.Attribute, ast.Name)):
                summary.escaping_params.add(name)


def _stores_into_state(assign, module_globals):
    targets = assign.targets if isinstance(assign, ast.Assign) else [assign.target]
    for target in targets:
        if isinstance(target, ast.Attribute):
            return True
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute):
                return True
            if isinstance(base, ast.Name) and base.id in module_globals:
                return True
    return False


def _captured_names(node):
    """Names an expression *captures* (stores by reference).

    A bare name or a name inside a container literal is captured; a
    name nested inside a call is not — the call's result is a new
    value, and the callee's own summary (closed over the call graph)
    decides whether *it* stores the argument.
    """
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Starred):
        return _captured_names(node.value)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        names = set()
        for element in node.elts:
            names.update(_captured_names(element))
        return names
    if isinstance(node, ast.Dict):
        names = set()
        for value in node.values:
            names.update(_captured_names(value))
        return names
    return set()


# ----------------------------------------------------------------------
# project-level assembly


class ProjectDataflow:
    """Summaries for every function plus interprocedural escape closure."""

    def __init__(self, symbols, callgraph):
        self.symbols = symbols
        self.callgraph = callgraph
        self.summaries = {}
        self.mutable_globals = {}
        for path in sorted(symbols.modules):
            module = symbols.modules[path]
            names = set()
            for statement in module.tree.body:
                if isinstance(statement, ast.Assign):
                    if is_mutable_container(statement.value):
                        for target in statement.targets:
                            if isinstance(target, ast.Name):
                                names.add(target.id)
            self.mutable_globals[path] = names
        for func in symbols.all_functions():
            self.summaries[func.qualname] = summarize_function(
                func, self.mutable_globals[func.module.path]
            )
        self._close_param_escape()

    # ------------------------------------------------------------------

    def param_escapes(self, qualname, param_name):
        """True when a function stores ``param_name`` beyond the call."""
        summary = self.summaries.get(qualname)
        return summary is not None and param_name in summary.escaping_params

    def global_mutators(self, module_path, global_name):
        """Qualnames of functions that mutate one module global, sorted."""
        out = []
        module = self.symbols.modules.get(module_path)
        if module is None:
            return out
        for qualname in sorted(self.summaries):
            summary = self.summaries[qualname]
            if global_name not in summary.global_mutations:
                continue
            info = self.callgraph._function_by_qualname(qualname)
            if info is not None and info.module.path == module_path:
                out.append(qualname)
        return out

    # ------------------------------------------------------------------

    def _close_param_escape(self):
        """Propagate escape through calls: f(x) where f stores its arg.

        One fixed-point sweep over the call graph: if function ``f``
        passes its own parameter ``p`` as a positional argument to a
        callee whose matching parameter escapes, then ``p`` escapes
        from ``f`` as well. Keyword arguments match by name.
        """
        changed = True
        while changed:
            changed = False
            for func in self.symbols.all_functions():
                summary = self.summaries[func.qualname]
                params = {a.arg for a in func.node.args.args + func.node.args.kwonlyargs}
                params.discard("self")
                for call in (
                    n for n in _function_nodes(func.node) if isinstance(n, ast.Call)
                ):
                    callee = self.callgraph.resolve_call(func, call)
                    if callee is None or not hasattr(callee, "node"):
                        continue
                    if isinstance(callee.node, ast.ClassDef):
                        continue
                    callee_summary = self.summaries.get(callee.qualname)
                    if callee_summary is None:
                        continue
                    callee_params = [
                        a.arg
                        for a in callee.node.args.args
                        if a.arg != "self"
                    ]
                    for index, arg in enumerate(call.args):
                        if index >= len(callee_params):
                            break
                        if callee_params[index] not in callee_summary.escaping_params:
                            continue
                        for name in _captured_names(arg):
                            if name in params and name not in summary.escaping_params:
                                summary.escaping_params.add(name)
                                changed = True
                    for keyword in call.keywords:
                        if keyword.arg not in callee_summary.escaping_params:
                            continue
                        for name in _captured_names(keyword.value):
                            if name in params and name not in summary.escaping_params:
                                summary.escaping_params.add(name)
                                changed = True

"""Intraprocedural dataflow and conservative interprocedural summaries.

Two layers feed the flow-aware rules:

* :class:`ReachingTags` — a small flow-sensitive reaching-definitions
  lattice over one function body. Abstract values are *sets of tags*
  (supplied by a rule-specific classifier); the transfer function is
  assignment, the join at branch merges is set union, and loops are
  handled by re-running the body from the joined environment until an
  iteration adds no tag (tags only accumulate, so this terminates). DET005
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
    ``index`` is the function's module index.
    """

    def __init__(self, func_node, classify, index):
        self.classify = classify
        self._index = index
        self._env_at = {}
        self._run_block(func_node.body, {})

    # ------------------------------------------------------------------

    def tags_of(self, node, env=None):
        """Tags reaching ``node`` (an expression), resolved via its env."""
        if env is None:
            env = self._env_at.get(node, {})
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
        # A compound statement records only its own expressions: the
        # statements nested in it are recorded where they run.
        if isinstance(node, ast.If):
            self._record(env, node.test)
            then_env = self._run_block(node.body, dict(env))
            else_env = self._run_block(node.orelse, dict(env))
            return _join(then_env, else_env)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._record(env, node.target, node.iter)
            return self._run_loop(node, env, ())
        if isinstance(node, ast.While):
            return self._run_loop(node, env, (node.test,))
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._record(env, *node.items)
            return self._run_block(node.body, env)
        if isinstance(node, ast.Try):
            self._record(env, *[h.type for h in node.handlers if h.type is not None])
            out = self._run_block(node.body, dict(env))
            for handler in node.handlers:
                out = _join(out, self._run_block(handler.body, dict(env)))
            out = self._run_block(node.orelse, out)
            return self._run_block(node.finalbody, out)
        self._record(env, node)
        if isinstance(node, ast.Assign):
            tags = self.tags_of(node.value, env)
            for target in node.targets:
                env = self._bind(target, tags, env)
            return env
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            return self._bind(node.target, self.tags_of(node.value, env), env)
        return env

    def _run_loop(self, node, env, head):
        """Run the body from the entry joined with what earlier iterations
        carry back until one carries nothing new; a loop carrying no tag runs once."""
        while True:
            self._record(env, *head)
            carried = _join(env, self._run_block(node.body, dict(env)))
            if carried == env:
                return _join(env, self._run_block(node.orelse, dict(env)))
            env = carried

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

    def _record(self, env, *roots):
        # Envs are never mutated in place, so one can be shared; a loop's
        # last pass overwrites the earlier ones.
        for root in roots:
            for node in self._index.walk(root):
                self._env_at[node] = env


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
    params = _params(func_info.node)
    for item in _body_nodes(func_info):
        if isinstance(item, ast.Global):
            summary.global_rebinds.update(item.names)
        elif isinstance(item, (ast.Assign, ast.AugAssign)):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            for target in targets:
                _record_store(summary, target, module_globals)
            if _stores_into_state(item, module_globals):
                summary.escaping_params.update(_captured_names(item.value) & params)
        elif isinstance(item, ast.Call):
            _record_call(summary, item, module_globals, params)
    return summary


def _body_nodes(func_info):
    """A function's own nodes less its header (decorators, defaults and
    annotations), which runs where the ``def`` runs, not in a call."""
    node, index = func_info.node, func_info.module.index
    header = [node.args, node.returns] + node.decorator_list
    skip = {inner for root in header if root for inner in index.walk(root)}
    return [item for item in index.scope_nodes(node) if item not in skip]


def _params(func_node):
    """A function's parameter names, ``self`` aside."""
    args = func_node.args
    return {arg.arg for arg in args.args + args.kwonlyargs} - {"self"}


def _record_store(summary, target, module_globals):
    if isinstance(target, ast.Attribute):
        base = target.value
        if isinstance(base, ast.Name) and base.id == "self":
            summary.self_writes.add(target.attr)
    elif isinstance(target, ast.Subscript):
        base = target.value
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if base.value.id == "self":
                summary.self_mutations.add(base.attr)
        elif isinstance(base, ast.Name) and base.id in module_globals:
            summary.global_mutations.add(base.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _record_store(summary, element, module_globals)


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
    if isinstance(base, (ast.Attribute, ast.Name)):
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            summary.escaping_params.update(_captured_names(arg) & params)


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
    if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
        elements = node.values if isinstance(node, ast.Dict) else node.elts
        return set().union(*map(_captured_names, elements))
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
            self.mutable_globals[path] = {
                target.id
                for statement in symbols.modules[path].tree.body
                if isinstance(statement, ast.Assign) and is_mutable_container(statement.value)
                for target in statement.targets
                if isinstance(target, ast.Name)
            }
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

        If function ``f`` passes its own parameter ``p`` as a positional
        argument to a callee whose matching parameter escapes, then ``p``
        escapes from ``f`` as well. Keyword arguments match by name. Each
        function's calls are resolved once into links; the fixed point
        then sweeps the links until nothing changes.
        """
        links = []
        for func in self.symbols.all_functions():
            params = _params(func.node)
            for call in _body_nodes(func):
                if not isinstance(call, ast.Call):
                    continue
                callee = self.callgraph.resolve_call(func, call)
                if callee is None or not hasattr(callee, "node"):
                    continue
                if isinstance(callee.node, ast.ClassDef):
                    continue
                callee_summary = self.summaries.get(callee.qualname)
                if callee_summary is None:
                    continue
                callee_params = [a.arg for a in callee.node.args.args if a.arg != "self"]
                passed = [(keyword.arg, keyword.value) for keyword in call.keywords]
                passed += zip(callee_params, call.args)
                for callee_param, arg in passed:
                    names = _captured_names(arg) & params
                    if names:
                        links.append(
                            (self.summaries[func.qualname], callee_param, callee_summary, names)
                        )
        changed = True
        while changed:
            changed = False
            for summary, callee_param, callee_summary, names in links:
                if callee_param in callee_summary.escaping_params:
                    if not names <= summary.escaping_params:
                        summary.escaping_params |= names
                        changed = True

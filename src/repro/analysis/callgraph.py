"""Project-wide symbol table and call graph.

The flow-aware rules (SHARD001, DET005, PROTO003) need to answer
questions a single module's AST cannot: *which class does this call
land in*, *who can reach this function*. This module builds that
picture purely syntactically — one pass over the already-parsed module
set, no imports executed — and deterministically: every table is keyed
and iterated in sorted order, so two builds over the same tree are
structurally identical (a property tests/analysis asserts
byte-for-byte through the reports).

Resolution is deliberately conservative. A call that cannot be
resolved to a project symbol produces no edge; rules built on the
graph therefore err toward silence, mirroring settypes.py.

Qualified names ("qualnames") look like ``repro.gcs.daemon.SpreadDaemon.start``
for methods and ``repro.net.nic.allocate_mac`` for module functions;
classes are ``repro.gcs.daemon.SpreadDaemon``.
"""

import ast


def module_dotted_name(path):
    """Dotted module name for a source path.

    ``src/repro/gcs/daemon.py`` -> ``repro.gcs.daemon``; for paths
    outside a ``repro`` tree (fixtures, tmp files) the name is the
    stem, so single-file projects still resolve their own symbols.
    """
    parts = path.replace("\\", "/").split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    else:
        parts = parts[-1:]
    return ".".join(parts)


class FunctionInfo:
    """One function or method definition."""

    __slots__ = ("qualname", "node", "module", "class_name")

    def __init__(self, qualname, node, module, class_name=None):
        self.qualname = qualname
        self.node = node
        self.module = module
        self.class_name = class_name

    @property
    def name(self):
        return self.node.name

    def __repr__(self):
        return "FunctionInfo({})".format(self.qualname)


class ClassInfo:
    """One class definition: methods, raw base expressions, class attrs."""

    __slots__ = ("qualname", "node", "module", "methods", "base_exprs", "class_attrs")

    def __init__(self, qualname, node, module):
        self.qualname = qualname
        self.node = node
        self.module = module
        self.methods = {}
        self.base_exprs = list(node.bases)
        # class-level Assign statements: attr name -> value node
        self.class_attrs = {}

    @property
    def name(self):
        return self.node.name

    def __repr__(self):
        return "ClassInfo({})".format(self.qualname)


class ModuleInfo:
    """Symbols of one module: imports, top-level functions and classes."""

    __slots__ = ("path", "dotted", "tree", "index", "imports", "functions", "classes")

    def __init__(self, module_context):
        self.path = module_context.path
        self.dotted = module_dotted_name(module_context.path)
        self.tree = module_context.tree
        self.index = module_context.index
        # local alias -> dotted target ("repro.gcs.messages" for module
        # imports, "repro.gcs.messages.JoinMsg" for from-imports).
        self.imports = {}
        self.functions = {}
        self.classes = {}
        self._index()

    def all_functions(self):
        """The module's functions by name, then each class's methods by name."""
        out = [self.functions[name] for name in sorted(self.functions)]
        for class_name in sorted(self.classes):
            methods = self.classes[class_name].methods
            out += [methods[name] for name in sorted(methods)]
        return out

    def _index(self):
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = "{}.{}".format(node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = "{}.{}".format(self.dotted, node.name)
                self.functions[node.name] = FunctionInfo(qualname, node, self)
            elif isinstance(node, ast.ClassDef):
                qualname = "{}.{}".format(self.dotted, node.name)
                info = ClassInfo(qualname, node, self)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qualname = "{}.{}".format(qualname, item.name)
                        info.methods[item.name] = FunctionInfo(
                            method_qualname, item, self, class_name=node.name
                        )
                    elif isinstance(item, ast.Assign):
                        for target in item.targets:
                            if isinstance(target, ast.Name):
                                info.class_attrs[target.id] = item.value
                self.classes[node.name] = info


class SymbolTable:
    """Every module's symbols plus cross-module class resolution."""

    def __init__(self, module_contexts):
        self.modules = {}
        for context in module_contexts:
            info = ModuleInfo(context)
            self.modules[info.path] = info
        self.by_dotted = {}
        for path in sorted(self.modules):
            info = self.modules[path]
            self.by_dotted.setdefault(info.dotted, info)
        self._bases_cache = {}

    # ------------------------------------------------------------------
    # lookup

    def resolve_dotted(self, dotted):
        """A ClassInfo/FunctionInfo for a dotted target, or None."""
        module = self.by_dotted.get(dotted)
        if module is not None:
            return module
        parent, _, leaf = dotted.rpartition(".")
        module = self.by_dotted.get(parent)
        if module is None:
            return None
        return module.classes.get(leaf) or module.functions.get(leaf)

    def resolve_name(self, module_info, name):
        """What a bare name means inside ``module_info``: symbol or None."""
        if name in module_info.classes:
            return module_info.classes[name]
        if name in module_info.functions:
            return module_info.functions[name]
        target = module_info.imports.get(name)
        if target is None:
            return None
        return self.resolve_dotted(target)

    def class_of_function(self, func_info):
        """The ClassInfo a method belongs to, or None for functions."""
        if func_info.class_name is None:
            return None
        return func_info.module.classes.get(func_info.class_name)

    # ------------------------------------------------------------------
    # inheritance

    def base_classes(self, class_info):
        """Resolved direct bases (project classes only), sorted order."""
        cached = self._bases_cache.get(class_info.qualname)
        if cached is not None:
            return cached
        bases = []
        for expr in class_info.base_exprs:
            resolved = None
            if isinstance(expr, ast.Name):
                resolved = self.resolve_name(class_info.module, expr.id)
            elif isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
                target = class_info.module.imports.get(expr.value.id)
                if target is not None:
                    resolved = self.resolve_dotted("{}.{}".format(target, expr.attr))
            if isinstance(resolved, ClassInfo):
                bases.append(resolved)
        self._bases_cache[class_info.qualname] = bases
        return bases

    def ancestry(self, class_info):
        """The class and every resolvable ancestor, depth-first."""
        seen = []
        seen_names = set()
        stack = [class_info]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen_names:
                continue
            seen_names.add(current.qualname)
            seen.append(current)
            stack.extend(self.base_classes(current))
        return seen

    def lookup_method(self, class_info, method_name):
        """Resolve a method through the (approximate, DFS) MRO."""
        for ancestor in self.ancestry(class_info):
            method = ancestor.methods.get(method_name)
            if method is not None:
                return method
        return None

    # ------------------------------------------------------------------
    # iteration

    def all_functions(self):
        """Every FunctionInfo in the table, sorted by qualname."""
        out = []
        for path in sorted(self.modules):
            out.extend(self.modules[path].all_functions())
        return out


class CallGraph:
    """Caller -> callee qualname edges over a :class:`SymbolTable`."""

    def __init__(self, symbols):
        self.symbols = symbols
        self.edges = {}
        self.reverse = {}
        # call sites that *construct* a project class: caller -> class qualnames
        self.constructs = {}
        self._build()

    # ------------------------------------------------------------------

    def _build(self):
        for func in self.symbols.all_functions():
            callees = set()
            constructed = set()
            for node in func.module.index.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = self.resolve_call(func, node)
                if resolved is None:
                    continue
                if isinstance(resolved, ClassInfo):
                    constructed.add(resolved.qualname)
                    init = self.symbols.lookup_method(resolved, "__init__")
                    if init is not None:
                        callees.add(init.qualname)
                else:
                    callees.add(resolved.qualname)
            self.edges[func.qualname] = sorted(callees)
            self.constructs[func.qualname] = sorted(constructed)
            for callee in self.edges[func.qualname]:
                self.reverse.setdefault(callee, set()).add(func.qualname)

    def resolve_call(self, func_info, call_node):
        """The FunctionInfo/ClassInfo a call lands in, or None.

        Handles: bare names (local or imported functions/classes),
        ``self.method(...)`` including inherited methods,
        ``module.symbol(...)`` through module imports, and
        ``ImportedClass.method(...)`` static-style calls.
        """
        target = call_node.func
        module = func_info.module
        if isinstance(target, ast.Name):
            resolved = self.symbols.resolve_name(module, target.id)
            # A bare name can resolve to a module (an imported submodule
            # shadowed by a local); a module is not callable project code.
            if isinstance(resolved, ModuleInfo):
                return None
            return resolved
        if not isinstance(target, ast.Attribute):
            return None
        base = target.value
        if isinstance(base, ast.Name):
            if base.id == "self" and func_info.class_name is not None:
                own = self.symbols.class_of_function(func_info)
                if own is not None:
                    return self.symbols.lookup_method(own, target.attr)
                return None
            resolved_base = self.symbols.resolve_name(module, base.id)
            if isinstance(resolved_base, ModuleInfo):
                return resolved_base.functions.get(
                    target.attr
                ) or resolved_base.classes.get(target.attr)
            if isinstance(resolved_base, ClassInfo):
                return self.symbols.lookup_method(resolved_base, target.attr)
        return None

    # ------------------------------------------------------------------

    def transitive_callers(self, qualname):
        """Every function that can reach ``qualname``, sorted."""
        seen = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            for caller in self.reverse.get(current, ()):
                if caller not in seen:
                    seen.add(caller)
                    stack.append(caller)
        return sorted(seen)

    def reaching_classes(self, qualname):
        """Qualnames of classes whose methods can reach ``qualname``.

        The direct owner of a method counts; module-level functions
        contribute their callers' classes only. This is the "context"
        notion SHARD001 counts: two distinct reaching classes means two
        components can interleave on whatever ``qualname`` touches.
        """
        classes = set()
        for caller in [qualname] + self.transitive_callers(qualname):
            info = self._function_by_qualname(caller)
            if info is not None and info.class_name is not None:
                owner = self.symbols.class_of_function(info)
                if owner is not None:
                    classes.add(owner.qualname)
        return sorted(classes)

    def _function_by_qualname(self, qualname):
        parent, _, leaf = qualname.rpartition(".")
        resolved = self.symbols.resolve_dotted(parent)
        if isinstance(resolved, ClassInfo):
            return resolved.methods.get(leaf)
        if isinstance(resolved, ModuleInfo):
            return resolved.functions.get(leaf)
        return None

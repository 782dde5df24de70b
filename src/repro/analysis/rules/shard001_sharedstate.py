"""SHARD001 — mutable state shared across simulation contexts.

A multi-core kernel splits the world across cores: independent LAN
segments / cluster shards run in separate workers and their event
streams merge deterministically. Any module-level or class-level
mutable object that more than one component mutates is exactly the
state that cannot survive that split — two shards each advance their
own copy, and the merge is no longer a pure function of the event
streams. The per-process MAC allocator this rule originally caught
(``net/nic.py``) made two fresh ``Simulation`` objects in one process
allocate *different* MAC sequences than two in separate processes.

Five triggers, all within ``config.shard_scope``:

* a ``global`` rebind inside a function — per-process state by
  construction (the campaign worker pool's deliberate use carries a
  line-scoped suppression);
* an in-place mutation of a module-level container reachable (via the
  call graph) from methods of **two or more** distinct classes;
* an in-place mutation through an explicit ``ClassName.attr`` —
  cross-instance by construction;
* a mutable default argument, evaluated once at ``def`` time and
  shared by every call;
* a class-level mutable container, evaluated once at ``class`` time
  and shared by every instance.

The last two are the same trap at different scopes: two back-to-back
``Simulation`` runs in one process see each other's leftovers, while
each shard worker gets a fresh copy.
"""

import ast

from repro.analysis.dataflow import MUTATING_METHODS, is_mutable_container
from repro.analysis.engine import path_in_scope
from repro.analysis.registry import Rule, register


@register
class SharedShardStateRule(Rule):
    code = "SHARD001"
    name = "shared-shard-state"
    description = (
        "module/class-level mutable state mutated from more than one "
        "simulation context, a mutable default argument, or a class-level "
        "mutable container; breaks replay and deterministic shard merge"
    )
    rationale = (
        "A multi-core kernel runs cluster shards in "
        "separate workers and merges their event streams. State shared "
        "through a module global or class attribute diverges between "
        "workers: each process mutates its own copy, so replay is no "
        "longer a pure function of (seed, schedule). A mutable default "
        "or class attribute is the same state by accident of definition "
        "time: it outlives any single Simulation. State must hang off the "
        "Simulation (one owner per shard) or be immutable; bind fresh "
        "containers in __init__ or default to None."
    )
    example_bad = (
        "_next_id = [0]\n"
        "\n"
        "def allocate_id():\n"
        "    _next_id[0] += 1   # shared across every Simulation in-process\n"
        "    return _next_id[0]\n"
    )
    example_good = (
        "class Simulation:\n"
        "    def __init__(self):\n"
        "        self._next_id = 0   # one counter per simulation\n"
        "\n"
        "    def allocate_id(self):\n"
        "        self._next_id += 1\n"
        "        return self._next_id\n"
    )

    def check_project(self, project, config):
        in_scope = [
            module
            for module in project.modules
            if _in_shard_scope(module.path, config)
        ]
        if not in_scope:
            return
        dataflow = project.dataflow()
        callgraph = project.callgraph()
        symbols = project.symbols()
        for module in in_scope:
            # (a) global rebinds: per-process state by construction;
            # (d, e) containers evaluated once at def / class time.
            index = module.index
            for node in index.nodes:
                if isinstance(node, ast.Global):
                    yield module.finding(
                        self.code,
                        node,
                        "`global {}` rebind: per-process state that diverges "
                        "across simulation shards; own it from the Simulation "
                        "instead".format(", ".join(node.names)),
                    )
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for default in node.args.defaults + node.args.kw_defaults:
                        if default is not None and is_mutable_container(default):
                            yield module.finding(
                                self.code,
                                default,
                                "mutable default argument on `{}`: evaluated "
                                "once at def time and shared by every "
                                "call".format(node.name),
                            )
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.Assign) and is_mutable_container(item.value):
                            for target in item.targets:
                                if isinstance(target, ast.Name):
                                    yield module.finding(
                                        self.code,
                                        item,
                                        "class-level mutable container `{}.{}`: "
                                        "shared by every instance; bind it in "
                                        "__init__".format(node.name, target.id),
                                    )

            # (b) module-global containers mutated from >= 2 classes.
            module_info = symbols.modules.get(module.path)
            if module_info is None:
                continue
            for global_name in sorted(dataflow.mutable_globals.get(module.path, ())):
                mutators = dataflow.global_mutators(module.path, global_name)
                if not mutators:
                    continue
                contexts = set()
                for mutator in mutators:
                    contexts.update(callgraph.reaching_classes(mutator))
                if len(contexts) < 2:
                    continue
                for mutator in mutators:
                    func = callgraph._function_by_qualname(mutator)
                    if func is None:
                        continue
                    for site in _mutation_sites(index, func.node, global_name):
                        yield module.finding(
                            self.code,
                            site,
                            "module global `{}` mutated here is reachable from "
                            "{} component classes ({}); shard merge cannot "
                            "replay shared state".format(
                                global_name,
                                len(contexts),
                                ", ".join(sorted(contexts)),
                            ),
                        )

            # (c) explicit ClassName.attr mutation: cross-instance state.
            for func_node, _ in index.scopes()[1:]:
                for site, class_name, attr in _class_attr_mutations(
                    index, func_node, module_info, symbols
                ):
                    yield module.finding(
                        self.code,
                        site,
                        "class attribute `{}.{}` mutated in place: shared by "
                        "every instance across shard boundaries".format(
                            class_name, attr
                        ),
                    )


def _in_shard_scope(path, config):
    # Declared edge infrastructure (config.sim_edge) — e.g. the
    # sharded-run worker pool, whose per-process state is the
    # mechanism, not a determinism leak.
    return config.edge_reason(path) is None and path_in_scope(path, config.shard_scope)


def _mutation_sites(index, func_node, name):
    """Nodes inside one function that mutate the named binding in place."""
    for node in index.walk(func_node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                ):
                    yield node
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            yield node


def _class_attr_mutations(index, func_node, module_info, symbols):
    """(site, class name, attr) for in-place writes through ClassName.attr."""
    from repro.analysis.callgraph import ClassInfo

    for node in index.walk(func_node):
        base = None
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    base = target.value
                elif isinstance(target, ast.Attribute):
                    base = target
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
        ):
            base = node.func.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id != "self"
        ):
            resolved = symbols.resolve_name(module_info, base.value.id)
            if isinstance(resolved, ClassInfo) and base.attr in resolved.class_attrs:
                yield node, resolved.name, base.attr

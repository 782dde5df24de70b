"""DET005 — RNG-stream discipline across components.

Every draw must be attributable to one (seed, stream name) pair owned
by one component: that is what makes campaign replay byte-identical
and lets a schedule shrink without perturbing unrelated draws. A
stream obtained under one component's name but *consumed inside
another component* couples their draw sequences — reordering either
component's events silently changes both.

The rule follows stream values flow-sensitively (the
:class:`~repro.analysis.dataflow.ReachingTags` lattice) from their
creation (``self.rng(...)``, ``*.stream(...)``, ``*.fork(...)``, or a
``self.<attr>`` the class assigned a stream to) through local aliases
to each call site, inside ``config.shard_scope``:

* a stream argument in a method call on **another object** is flagged
  (``model.drops(gray_rng)`` — the model now draws under the LAN's
  name);
* a stream argument captured by a **constructor** is flagged (the new
  object holds a foreign stream for life);
* a stream handed to a resolvable **plain function** is allowed
  *unless* the callee's escape summary shows the parameter is stored
  — explicit handoff to a pure drawing function (the
  ``generate_schedule(rng, ...)`` idiom) is the documented pattern;
* a zero-argument ``Random()`` is flagged anywhere in scope: an
  OS-seeded generator can never replay.

Calls on ``self`` and draws on the stream itself are always fine, and
anything unresolvable is conservatively allowed.
"""

import ast

from repro.analysis.engine import RNG_OWNER, path_in_scope, path_matches
from repro.analysis.dataflow import ReachingTags
from repro.analysis.registry import Rule, register

_STREAM = "stream"
_STREAM_MAKERS = frozenset({"stream", "fork"})


@register
class RngStreamFlowRule(Rule):
    code = "DET005"
    name = "rng-stream-discipline"
    description = (
        "an RNG stream created under one component's name flows into "
        "another component's calls, or an unseeded Random escapes"
    )
    rationale = (
        "Replay and shrinking rely on every draw being a pure function "
        "of (seed, stream name), with each stream consumed by the "
        "component that named it. A stream that crosses components "
        "couples their draw sequences: deleting one fault from a "
        "schedule then shifts draws inside an unrelated component and "
        "the shrunk trace no longer reproduces. Pass draw *results* "
        "across components, or give the callee its own named stream."
    )
    example_bad = (
        "class Lan(Process):\n"
        "    def transmit(self):\n"
        "        rng = self.rng(\"lan\")\n"
        "        self.model.drops(rng)   # model draws under the LAN's name\n"
    )
    example_good = (
        "class Lan(Process):\n"
        "    def transmit(self):\n"
        "        # hand the model a decision, not the stream\n"
        "        if self.model.drops(self.rng(\"lan\").random()):\n"
        "            return\n"
    )

    def check_project(self, project, config):
        symbols = project.symbols()
        callgraph = project.callgraph()
        dataflow = project.dataflow()
        by_path = {module.path: module for module in project.modules}
        for path in sorted(symbols.modules):
            if not _in_scope(path, config):
                continue
            module = by_path.get(path)
            module_info = symbols.modules[path]
            if module is None:
                continue
            index = module.index
            stream_attrs = _stream_attrs_by_class(module_info)
            for func in module_info.all_functions():
                attrs = stream_attrs.get(func.class_name, frozenset())
                classify = _make_classifier(attrs)
                lattice = ReachingTags(func.node, classify, index)
                for finding in self._check_function(
                    func, lattice, module, callgraph, dataflow
                ):
                    yield finding
            for node in index.nodes:
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Random"
                    and not node.args
                    and not node.keywords
                ):
                    yield module.finding(
                        self.code,
                        node,
                        "unseeded Random(): OS-seeded state can never replay; "
                        "draw from a named RngRegistry stream",
                    )

    def _check_function(self, func, lattice, module, callgraph, dataflow):
        for call in module.index.walk(func.node):
            if not isinstance(call, ast.Call):
                continue
            stream_args = _stream_arguments(call, lattice)
            if not stream_args:
                continue
            target = call.func
            if isinstance(target, ast.Attribute):
                base = target.value
                if isinstance(base, ast.Name) and base.id == "self":
                    continue  # own method: same component
                if _STREAM in lattice.tags_of(base):
                    continue  # a draw (or fork) on the stream itself
                if target.attr in _STREAM_MAKERS:
                    continue  # registry plumbing creates streams
                yield module.finding(
                    self.code,
                    call,
                    "RNG stream passed into another object's method "
                    "(`{}`); the callee now draws under this component's "
                    "stream name".format(_describe(target)),
                )
                continue
            if isinstance(target, ast.Name):
                resolved = callgraph.resolve_call(func, call)
                if resolved is None:
                    continue  # unresolvable: err toward silence
                if not hasattr(resolved, "node") or isinstance(
                    resolved.node, ast.ClassDef
                ):
                    yield module.finding(
                        self.code,
                        call,
                        "RNG stream captured by `{}(...)`: the constructed "
                        "object holds a foreign stream; give it its own "
                        "named stream instead".format(target.id),
                    )
                    continue
                for param in _escaping_stream_params(
                    call, stream_args, resolved, dataflow
                ):
                    yield module.finding(
                        self.code,
                        call,
                        "RNG stream escapes through `{}`: parameter `{}` is "
                        "stored beyond the call".format(target.id, param),
                    )


def _in_scope(path, config):
    return not path_matches(path, RNG_OWNER) and path_in_scope(path, config.shard_scope)


def _stream_attrs_by_class(module_info):
    """``{class name: attrs assigned a stream expression somewhere}``."""
    out = {}
    for class_name in sorted(module_info.classes):
        info = module_info.classes[class_name]
        attrs = set()
        for method_name in sorted(info.methods):
            for node in module_info.index.walk(info.methods[method_name].node):
                if not isinstance(node, ast.Assign):
                    continue
                if not _is_stream_call(node.value):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
        out[class_name] = frozenset(attrs)
    return out


def _is_stream_call(node):
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    func = node.func
    if func.attr in _STREAM_MAKERS:
        return True
    return (
        func.attr == "rng"
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    )


def _make_classifier(stream_attrs):
    def classify(node, env):
        if _is_stream_call(node):
            return {_STREAM}
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in stream_attrs
        ):
            return {_STREAM}
        return ()

    return classify


def _stream_arguments(call, lattice):
    """``{position-or-keyword: arg node}`` for stream-tagged arguments."""
    out = {}
    for index, arg in enumerate(call.args):
        if _STREAM in lattice.tags_of(arg):
            out[index] = arg
    for keyword in call.keywords:
        if keyword.arg is not None and _STREAM in lattice.tags_of(keyword.value):
            out[keyword.arg] = keyword.value
    return out


def _escaping_stream_params(call, stream_args, callee, dataflow):
    """Callee parameter names that both receive a stream and escape."""
    params = [a.arg for a in callee.node.args.args if a.arg != "self"]
    escaping = []
    for key in sorted(stream_args, key=str):
        if isinstance(key, int):
            if key < len(params):
                name = params[key]
            else:
                continue
        else:
            name = key
        if dataflow.param_escapes(callee.qualname, name):
            escaping.append(name)
    return escaping


def _describe(attribute):
    parts = [attribute.attr]
    node = attribute.value
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))

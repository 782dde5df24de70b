"""DET003 — an order that differs between processes.

Two shapes, one hazard: an order the replay process does not reproduce.

The first is ``id()``/``hash()`` inside a sort key or an ordering
comparison. ``id()`` is an address (different every process), and
``hash()`` of str/bytes is randomised per interpreter unless
PYTHONHASHSEED is pinned — exactly the ``CoverageAuditor.components()``
bug PR 1 needed thousands of trials to surface. Order by a stable
attribute (name, sequence number) instead.

The second is unordered iteration whose order escapes. Iterating a ``set``/``frozenset`` (order depends on the interpreter's
hash randomisation and insertion history) or a dict's ``.values()`` /
``.items()`` (order depends on key insertion, which in protocol code is
usually message-arrival order) is fine while the consumer is
order-insensitive — but the moment that order escapes into a list, a
trace, a wire message, or a protocol decision, replay is no longer a
pure function of the fault schedule. The fix is always the same:
iterate ``sorted(...)`` over a canonical key.

What the rule flags, besides id()/hash() orderings:

* set-like expressions in ordered conversions — ``list(s)``,
  ``tuple(s)``, ``enumerate(s)``, ``reversed(s)``, ``sep.join(s)``,
  list comprehensions;
* ``for`` statements over set-like expressions or dict
  ``.values()``/``.items()`` whose body *accumulates in order*
  (``.append``/``.extend``/``.insert``/``.update``/``.setdefault``,
  ``yield``, or a trace/broadcast/send-style call);
* dict ``.values()`` in ordered conversions.

Deliberately *not* flagged: plain dict (key) iteration and ``.items()``
comprehensions — the codebase's canonical-key dicts (slot tables built
from configuration order) are deterministic by construction, and
flagging them would bury the real arrival-ordered offenders.
"""

import ast

from repro.analysis.registry import Rule, register
from repro.analysis.settypes import DICT_KIND, SET_KIND, KindResolver, class_attr_kinds

_ORDERED_CONVERSIONS = {"list", "tuple", "enumerate", "reversed", "iter", "next"}
_ORDER_INSENSITIVE = {
    "sorted",
    "min",
    "max",
    "sum",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
    "dict",
    "zip",
}
_SORT_CALLS = {"sorted", "min", "max"}
_UNSTABLE = {"id", "hash"}
_ACCUMULATORS = {"append", "extend", "insert", "update", "setdefault"}
_EMITTERS = {
    "trace",
    "broadcast",
    "unicast",
    "multicast",
    "send",
    "send_udp",
    "submit",
    "deliver",
    "announce",
}


@register
class UnorderedIterationRule(Rule):
    code = "DET003"
    name = "process-dependent-order"
    description = (
        "iteration over a set / dict values where the (hash-seeded or "
        "arrival-dependent) order escapes, or id()/hash() in a sort key "
        "or ordering comparison; sort on a stable value instead"
    )
    rationale = (
        "Set iteration order depends on the interpreter's hash seed and "
        "insertion history; dict order depends on arrival order; id() is "
        "a memory address and hash() of a str is salted per process. "
        "When such an order escapes — into a message, a trace line, an "
        "event queue, a tie-break — the replay process orders differently "
        "and the failure no longer reproduces. Sorting on the element "
        "values, or on a stable attribute (name, address, sequence "
        "number), pins the order."
    )
    example_bad = (
        "for host in self.suspects:        # set order escapes\n"
        "    self.send_udp(host, Probe())\n"
        "winner = min(candidates, key=id)  # memory-address tie-break\n"
    )
    example_good = (
        "for host in sorted(self.suspects):\n"
        "    self.send_udp(host, Probe())\n"
        "winner = min(candidates, key=lambda host: host.name)\n"
    )

    def check_module(self, module, config):
        index = module.index
        for node in index.nodes:
            for anchor, message in _unstable_orderings(node, index):
                yield module.finding(self.code, anchor, message)
        attr_kinds = {}
        for scope, owner in index.scopes():
            if owner is not None and owner not in attr_kinds:
                attr_kinds[owner] = class_attr_kinds(index, owner)
            resolver = KindResolver(index, scope, attr_kinds.get(owner))
            for finding in self._check_scope(module, scope, resolver):
                yield finding

    # ------------------------------------------------------------------

    def _check_scope(self, module, scope, resolver):
        index = module.index
        for node in index.scope_nodes(scope):
            if isinstance(node, ast.For):
                kind = self._iterable_kind(node.iter, resolver, statement=True)
                if kind is not None and _body_escapes(node, index):
                    yield module.finding(
                        self.code,
                        node,
                        "for-loop over {} feeds an ordered accumulation; "
                        "iterate sorted(...) instead".format(kind),
                    )
            elif isinstance(node, ast.Call):
                for finding in self._check_call(module, node, resolver):
                    yield finding
            elif isinstance(node, ast.ListComp):
                for generator in node.generators:
                    kind = self._iterable_kind(generator.iter, resolver)
                    if kind is not None:
                        yield module.finding(
                            self.code,
                            generator.iter,
                            "list comprehension over {} captures an "
                            "unstable order; iterate sorted(...) instead".format(kind),
                        )
            elif isinstance(node, ast.GeneratorExp):
                consumer = _consumer_name(index.parents.get(node))
                if consumer is None or consumer in _ORDER_INSENSITIVE:
                    continue
                for generator in node.generators:
                    kind = self._iterable_kind(generator.iter, resolver)
                    if kind is not None:
                        yield module.finding(
                            self.code,
                            generator.iter,
                            "generator over {} flows into {}() which keeps "
                            "its order; iterate sorted(...) instead".format(
                                kind, consumer
                            ),
                        )

    def _check_call(self, module, node, resolver):
        func = node.func
        name = None
        if isinstance(func, ast.Name) and func.id in _ORDERED_CONVERSIONS:
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            name = "join"
        if name is None or not node.args:
            return
        kind = self._iterable_kind(node.args[0], resolver)
        if kind is not None:
            yield module.finding(
                self.code,
                node,
                "{}() over {} captures an unstable order; wrap the "
                "iterable in sorted(...)".format(name, kind),
            )

    def _iterable_kind(self, iterable, resolver, statement=False):
        """'a set'/'dict values'/'dict items' when order is unstable.

        ``.items()`` only counts in ``for`` statements (``statement``):
        items-comprehensions over canonical-key dicts (the slot-table
        idiom) are deterministic by construction, while an ``.items()``
        loop that accumulates is usually walking an arrival-ordered map.
        """
        kind = resolver.kind_of(iterable)
        if kind == SET_KIND:
            return "a set"
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr in ("values", "items")
            and not iterable.args
        ):
            if iterable.func.attr == "items" and not statement:
                return None
            base_kind = resolver.kind_of(iterable.func.value)
            if base_kind == DICT_KIND:
                return "dict {}".format(iterable.func.attr)
        return None


def _unstable_orderings(node, index):
    """(anchor, message) for id()/hash() keying a sort or an ordering test.

    ``id()`` is an address and ``hash()`` of a str is salted per
    process: an order keyed on either differs in the replay process.
    """
    if isinstance(node, ast.Call):
        func = node.func
        if not (
            (isinstance(func, ast.Name) and func.id in _SORT_CALLS)
            or (isinstance(func, ast.Attribute) and func.attr == "sort")
        ):
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            key = keyword.value
            if isinstance(key, ast.Name) and key.id in _UNSTABLE:
                yield key, (
                    "key={} orders by a per-process value; sort by a stable "
                    "attribute instead".format(key.id)
                )
                continue
            for inner in index.walk(key):
                if _is_unstable_call(inner):
                    yield inner, (
                        "{}() inside a sort key orders by a per-process value; "
                        "sort by a stable attribute instead".format(inner.func.id)
                    )
    elif isinstance(node, ast.Compare) and any(
        isinstance(op, (ast.Lt, ast.Gt, ast.LtE, ast.GtE)) for op in node.ops
    ):
        for side in [node.left] + list(node.comparators):
            if _is_unstable_call(side):
                yield side, (
                    "ordering comparison on {}(); per-process values must not "
                    "break ties".format(side.func.id)
                )


def _is_unstable_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _UNSTABLE
    )


def _body_escapes(for_node, index):
    """True when the loop body accumulates or emits in iteration order."""
    for stmt in for_node.body + for_node.orelse:
        for node in index.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _ACCUMULATORS or node.func.attr in _EMITTERS:
                    return True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _EMITTERS:
                    return True
    return False


def _consumer_name(parent):
    """The callable a bare generator expression's ``parent`` passes it to."""
    if not isinstance(parent, ast.Call):
        return None
    func = parent.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None

"""Light-weight, purely syntactic set/dict type inference for DET003.

Tracks only what is locally evident — literals, ``set()``/``dict()``
constructors, set operators, assignments to locals and ``self.``
attributes inside the same class — and answers "is this expression
set-like / dict-like?". Anything it cannot prove is left alone, so the
rule errs toward silence on unknown types rather than noise.
"""

import ast

SET_KIND = "set"
DICT_KIND = "dict"

_SET_CALLS = {"set", "frozenset"}
_DICT_CALLS = {"dict"}
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def class_attr_kinds(index, class_node):
    """Map ``self.<attr>`` -> kind, from every assignment in the class's
    functions (``index`` is the module's index)."""
    kinds = {}
    for method in index.walk(class_node):
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for targets, value in _assignments(index.walk(method)):
            kind = literal_kind(value)
            if kind is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    # A set-like assignment anywhere marks the attribute;
                    # prefer SET over DICT when both ever appear.
                    previous = kinds.get(target.attr)
                    if previous != SET_KIND:
                        kinds[target.attr] = kind
    return kinds


def local_kinds(index, func_node):
    """Map local variable name -> kind, from assignments anywhere under a
    function, nested definitions included, in ``ast.walk`` order."""
    kinds = {}
    for targets, value in _assignments(index.walk(func_node)):
        kind = literal_kind(value)
        for target in targets:
            if isinstance(target, ast.Name):
                if kind is not None:
                    if kinds.get(target.id) != SET_KIND:
                        kinds[target.id] = kind
                elif target.id in kinds:
                    # Rebound to something unknown: stop claiming a kind.
                    del kinds[target.id]
    return kinds


def _assignments(nodes):
    """``(targets, value)`` of every assignment among ``nodes``, in order."""
    for node in nodes:
        if isinstance(node, ast.Assign):
            yield node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield [node.target], node.value


def literal_kind(node):
    """Kind evident from the expression's own syntax, else None."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return SET_KIND
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return DICT_KIND
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _SET_CALLS:
                return SET_KIND
            if func.id in _DICT_CALLS:
                return DICT_KIND
        if isinstance(func, ast.Attribute):
            if func.attr in _SET_METHODS and literal_kind(func.value) == SET_KIND:
                return SET_KIND
            if func.attr == "fromkeys" and isinstance(func.value, ast.Name):
                if func.value.id == "dict":
                    return DICT_KIND
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        if literal_kind(node.left) == SET_KIND or literal_kind(node.right) == SET_KIND:
            return SET_KIND
    return None


class KindResolver:
    """Resolve expression kinds inside one function, with class context."""

    def __init__(self, index, func_node, attr_kinds=None):
        self.locals = local_kinds(index, func_node)
        self.attrs = attr_kinds or {}

    def kind_of(self, node):
        """SET_KIND / DICT_KIND / None for an arbitrary expression."""
        direct = literal_kind(node)
        if direct is not None:
            return direct
        if isinstance(node, ast.Name):
            return self.locals.get(node.id)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self.attrs.get(node.attr)
            # x.union(...) etc. on a known local/attr
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _SET_METHODS:
                if self.kind_of(node.func.value) == SET_KIND:
                    return SET_KIND
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            if (
                self.kind_of(node.left) == SET_KIND
                or self.kind_of(node.right) == SET_KIND
            ):
                return SET_KIND
        return None

"""PROTO003 — protocol fields written outside declared transitions.

The membership/ordering invariants hold because every write to a
protocol-owned field (``state``, ``view``, ``delivered_aru``, …) goes
through the owning object's transition code, which maintains the
attendant bookkeeping. Two escapes break that:

* a handler reaching **into another object** and writing one of its
  protocol fields (``old_orderer.delivered_aru = seq``) — the owner's
  transition logic (duplicate guards, monotonicity, traces) is
  bypassed;
* an explicit-state machine assigning ``self.state`` a value that is
  not one of its declared state constants — the machine can enter a
  state no handler enumerates.

Scope: methods of classes that participate in a state machine; the
protected fields are ``_PROTECTED_FIELDS``. docs/ANALYSIS.md has the
rationale and a bad/good example pair.
"""

import ast

from repro.analysis.statemachine import state_assign_targets

CODE = "PROTO003"

# Attribute names treated as protocol-owned: only the owning object's
# declared transition code may write them.
_PROTECTED_FIELDS = frozenset(
    {"delivered_aru", "epoch", "highest_counter", "state", "view", "view_id"}
)


def protocol_field_writes(machines):
    """The PROTO003 findings of the extracted ``machines``."""
    for machine in machines:
        module = machine.module
        index = module.index
        data = machine.data
        for method in machine.class_node.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for site, attr, owner in _foreign_field_writes(index, method):
                yield module.finding(
                    CODE,
                    site,
                    "machine `{}`: {}.{} writes protocol field `{}` of "
                    "`{}` directly; route it through a method the owner "
                    "declares".format(data["name"], data["class"], method.name, attr, owner),
                )
            if data["kind"] == "states":
                for site, values in state_assign_targets(
                    index, method, machine.spec.state_attr, machine.state_constants
                ):
                    if not values:
                        yield module.finding(
                            CODE,
                            site,
                            "machine `{}`: {}.{} assigns a non-constant to "
                            "self.{}; only declared state constants keep "
                            "the machine enumerable".format(
                                data["name"],
                                data["class"],
                                method.name,
                                machine.spec.state_attr,
                            ),
                        )


def _foreign_field_writes(index, method):
    """(site, field, owner-expr) for protected writes on non-self objects."""
    for node in index.walk(method):
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if not isinstance(target, ast.Attribute) or target.attr not in _PROTECTED_FIELDS:
                continue
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                continue
            yield node, target.attr, _owner_text(base)


def _owner_text(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return "{}.{}".format(_owner_text(node.value), node.attr)
    return "<expr>"

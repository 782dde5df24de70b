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

Scope: methods of classes that participate in a configured state
machine; the protected fields are ``_PROTECTED_FIELDS``.
"""

import ast

from repro.analysis.registry import Rule, register
from repro.analysis.statemachine import state_assign_targets

# Attribute names treated as protocol-owned: only the owning object's
# declared transition code may write them.
_PROTECTED_FIELDS = frozenset(
    {"delivered_aru", "epoch", "highest_counter", "state", "view", "view_id"}
)


@register
class ProtocolFieldWriteRule(Rule):
    code = "PROTO003"
    name = "protocol-field-write"
    description = (
        "a state-machine participant writes a protocol-owned field "
        "(state/view/aru/epoch) outside the owning object's declared "
        "transition code"
    )
    rationale = (
        "Protocol fields carry invariants (monotone sequence counters, "
        "view/state agreement) that only the owning object's transition "
        "methods maintain. A write from outside — another object "
        "poking the field, or a computed state value — lands without "
        "the guards and bookkeeping, and the resulting states are "
        "exactly the arbitrary-state corruptions the corrupt faults "
        "inject on purpose. Route the write through a method the "
        "owner declares."
    )
    example_bad = (
        "def apply_install(self, install):\n"
        "    for seq in sorted(union):\n"
        "        if seq > old_orderer.delivered_aru:\n"
        "            old_orderer.delivered_aru = seq   # bypasses the orderer\n"
        "            self.apply_ordered(union[seq])\n"
    )
    example_good = (
        "def apply_install(self, install):\n"
        "    for seq in sorted(union):\n"
        "        # the orderer advances its own counter, with its guards\n"
        "        if old_orderer.absorb_recovered(seq):\n"
        "            self.apply_ordered(union[seq])\n"
    )

    def check_project(self, project, config):
        for machine in project.machines():
            module = machine.module
            index = module.index
            data = machine.data
            for method in machine.class_node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                for site, attr, owner in _foreign_field_writes(index, method):
                    yield module.finding(
                        self.code,
                        site,
                        "machine `{}`: {}.{} writes protocol field `{}` of "
                        "`{}` directly; route it through a method the owner "
                        "declares".format(
                            data["name"], data["class"], method.name, attr, owner
                        ),
                    )
                if data["kind"] == "states":
                    for site, values in state_assign_targets(
                        index, method, machine.spec.state_attr, machine.state_constants
                    ):
                        if not values:
                            yield module.finding(
                                self.code,
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

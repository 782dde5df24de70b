"""PROTO002 — state-machine completeness.

Consumes the extracted machines (:mod:`repro.analysis.statemachine`)
and checks that every reachable (state, input) pair has *decided*
behaviour:

* **dispatch** machines: every wire-message class of the protocol's
  messages module needs an arm in the dispatch chain (or the chain
  needs a default ``else`` arm). A kind with no arm is dropped by
  omission — the classic silent-drop membership bug. Client-facing or
  payload classes opt out with ``# repro: not-wire`` on their class
  line.
* **states** machines: a handler whose whole body is a multi-arm
  ``self.state ==`` chain with no ``else`` and incomplete coverage
  silently ignores the missing states. (A single-arm guard is the
  idiomatic "act only in state X, else drop" and stays legal, as does
  any handler with an unguarded default path.)
* **declared** machines: every transition endpoint must be a declared
  state.
"""

from repro.analysis.registry import Rule, register
from repro.analysis.statemachine import eq_chain_shape


@register
class StateMachineCompletenessRule(Rule):
    code = "PROTO002"
    name = "state-machine-completeness"
    description = (
        "a protocol state machine leaves a (state, message) pair "
        "undecided: unhandled wire kind, partial state chain, or "
        "transition to an undeclared state"
    )
    rationale = (
        "Convergence from arbitrary state (self-stabilization) requires "
        "every handler to decide every input in every state — handle "
        "it or drop it explicitly. A dispatch chain missing a kind, or "
        "a multi-arm state chain missing a state, is an *accidental* "
        "drop: the protocol's behaviour there is whatever the code "
        "happens not to do, which corruption faults will find."
    )
    example_bad = (
        "def on_msg(self, m):\n"
        "    if self.state == IDLE:\n"
        "        self.begin(m)\n"
        "    elif self.state == BUSY:\n"
        "        self.queue(m)\n"
        "    # SYNCING state silently ignored\n"
    )
    example_good = (
        "def on_msg(self, m):\n"
        "    if self.state == IDLE:\n"
        "        self.begin(m)\n"
        "    elif self.state == BUSY:\n"
        "        self.queue(m)\n"
        "    else:   # SYNCING (and any future state): explicit drop\n"
        "        self.trace(\"drop\", m)\n"
    )

    def check_project(self, project, config):
        for machine in project.machines():
            data = machine.data
            module = machine.module
            if data["kind"] == "dispatch":
                if machine.dispatcher_node is None:
                    yield module.finding(
                        self.code,
                        machine.class_node,
                        "machine `{}`: dispatcher method `{}` not found on "
                        "class {}".format(
                            data["name"], machine.spec.dispatcher, data["class"]
                        ),
                    )
                    continue
                for kind in data["unhandled"]:
                    yield module.finding(
                        self.code,
                        machine.dispatcher_node,
                        "machine `{}`: wire message {} has no dispatch arm in "
                        "{} and no default arm drops it".format(
                            data["name"], kind, machine.spec.dispatcher
                        ),
                    )
            elif data["kind"] == "states":
                declared = set(data["states"])
                for name in sorted(machine.handler_nodes):
                    node = machine.handler_nodes[name]
                    shape = eq_chain_shape(
                        node, machine.spec.state_attr, machine.state_constants
                    )
                    if shape is None:
                        continue
                    arms, covered, has_else = shape
                    missing = declared - covered
                    if arms >= 2 and not has_else and missing:
                        yield module.finding(
                            self.code,
                            node,
                            "machine `{}`: handler {} enumerates states but "
                            "silently ignores {}; add an arm or an explicit "
                            "else-drop".format(
                                data["name"], name, ", ".join(sorted(missing))
                            ),
                        )
            elif data["kind"] == "declared":
                declared = set(data["states"])
                for from_state, event, to_state in data["transitions"]:
                    undeclared = sorted(
                        {from_state, to_state} - declared
                    )
                    if undeclared:
                        yield module.finding(
                            self.code,
                            machine.class_node,
                            "machine `{}`: transition ({}, {}, {}) references "
                            "undeclared state(s) {}".format(
                                data["name"],
                                from_state,
                                event,
                                to_state,
                                ", ".join(undeclared),
                            ),
                        )

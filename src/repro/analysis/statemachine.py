"""Protocol state-machine extraction.

Three machine shapes exist in the tree and each gets an extractor:

* **dispatch** — a daemon's message dispatcher: an ``if``/``elif``
  chain on the message's exact type (``kind = type(message)`` then
  ``if kind is X``, the hot-path form ``gcs/daemon.py`` and
  ``gcs/segments.py`` use) or on ``isinstance`` of the message or of
  an attribute it carries (``payload = message.payload``, as in
  ``core/daemon.py``). The extractor recovers the message-kind →
  handler-call arms and compares them against the wire classes of the
  protocol's messages module.

* **states** — a handler class whose methods branch on an explicit
  ``self.state`` attribute against module-level string constants
  (``gcs/membership.py``). The extractor recovers the state set and,
  per handler, which states it guards on and which it assigns.

* **declared** — an explicit transition table (``core/state.py``):
  the ``STATES`` tuple and ``TRANSITIONS`` frozenset literals are
  parsed directly, so the artifact mirrors Figure 2 of the paper.

``extract_machines`` returns rich :class:`ExtractedMachine` objects
(AST nodes attached, for the PROTO003 rule);
``render_state_machines`` reduces them to the deterministic JSON
artifact behind ``repro lint --state-machines`` (format
``repro-state-machines/1``, committed as ``docs/state-machines.json``).
Everything is emitted in sorted order so two runs are byte-identical.
"""

import ast
import os

from repro.analysis.suppress import is_not_wire

STATE_MACHINES_FORMAT = "repro-state-machines/1"


class StateMachineSpec:
    """Where one protocol machine lives and how to read it."""

    __slots__ = (
        "name",
        "kind",
        "module",
        "class_name",
        "dispatcher",
        "messages",
        "state_attr",
        "states_name",
        "transitions_name",
    )

    def __init__(
        self,
        name,
        kind,
        module,
        class_name,
        dispatcher=None,
        messages=None,
        state_attr="state",
        states_name="STATES",
        transitions_name="TRANSITIONS",
    ):
        if kind not in ("dispatch", "states", "declared"):
            raise ValueError("unknown machine kind {!r}".format(kind))
        self.name = name
        self.kind = kind
        self.module = module
        self.class_name = class_name
        self.dispatcher = dispatcher
        self.messages = messages
        self.state_attr = state_attr
        self.states_name = states_name
        self.transitions_name = transitions_name


#: The machines of this tree, in artifact order.
DEFAULT_STATE_MACHINES = (
    StateMachineSpec(
        "core.daemon",
        "dispatch",
        "repro/core/daemon.py",
        "WackamoleDaemon",
        dispatcher="_on_message",
        messages="repro/core/messages.py",
    ),
    StateMachineSpec(
        "core.wackamole",
        "declared",
        "repro/core/state.py",
        "StateMachine",
    ),
    StateMachineSpec(
        "gcs.daemon",
        "dispatch",
        "repro/gcs/daemon.py",
        "SpreadDaemon",
        dispatcher="_on_datagram",
        messages="repro/gcs/messages.py",
    ),
    StateMachineSpec(
        "gcs.membership",
        "states",
        "repro/gcs/membership.py",
        "MembershipEngine",
    ),
    StateMachineSpec(
        "gcs.segments",
        "dispatch",
        "repro/gcs/segments.py",
        "SegmentNode",
        dispatcher="_on_datagram",
        messages="repro/gcs/segments.py",
    ),
)


class ExtractedMachine:
    """One extracted machine: the JSON-able ``data`` plus AST anchors."""

    __slots__ = ("spec", "module", "class_node", "state_constants", "data")

    def __init__(self, spec, module):
        self.spec = spec
        self.module = module
        self.class_node = None
        # constant name -> state value (module-level string constants)
        self.state_constants = {}
        self.data = {}


def extract_machines(modules, state_machines):
    """Extract every machine of ``state_machines`` found in ``modules``.

    Machines whose module is not part of the run are skipped (a
    partial-tree lint cannot see them); order follows ``state_machines``.
    """
    machines = []
    for spec in state_machines:
        module = _find(modules, spec.module)
        if module is None:
            continue
        extracted = _extract_one(spec, module, modules)
        if extracted is not None:
            machines.append(extracted)
    return machines


def render_state_machines(modules, state_machines=DEFAULT_STATE_MACHINES):
    """The deterministic ``--state-machines`` artifact."""
    return {
        "format": STATE_MACHINES_FORMAT,
        "machines": [m.data for m in extract_machines(modules, state_machines)],
    }


def _find(modules, suffix):
    """The first module whose posix path ends in the segments ``suffix``."""
    suffix = suffix.rstrip("/")
    for module in modules:
        path = module.path.replace(os.sep, "/")
        if path == suffix or path.endswith("/" + suffix):
            return module
    return None


# ----------------------------------------------------------------------
# per-kind extraction


def _extract_one(spec, module, modules):
    class_node = _top_level_class(module.tree, spec.class_name)
    if class_node is None:
        return None
    extracted = ExtractedMachine(spec, module)
    extracted.class_node = class_node
    if spec.kind == "dispatch":
        _extract_dispatch(extracted, modules)
    elif spec.kind == "states":
        _extract_states(extracted)
    else:
        _extract_declared(extracted)
    return extracted


def _extract_dispatch(extracted, modules):
    spec = extracted.spec
    class_node = extracted.class_node
    dispatcher = None
    for item in class_node.body:
        if isinstance(item, ast.FunctionDef) and item.name == spec.dispatcher:
            dispatcher = item
            break
    arms = {}
    has_default = False
    if dispatcher is not None:
        index = extracted.module.index
        subjects = _subjects(index, dispatcher)
        aliases = _type_aliases(index, dispatcher, subjects)
        arms, has_default = _dispatch_arms(index, dispatcher.body, subjects, aliases)
    messages_module = _find(modules, spec.messages) if spec.messages else None
    kinds = []
    if messages_module is not None:
        kinds = sorted(c.name for c in _wire_classes(messages_module))
    extracted.data = {
        "name": spec.name,
        "kind": "dispatch",
        "module": extracted.module.path,
        "class": spec.class_name,
        "dispatcher": spec.dispatcher,
        "messages_module": messages_module.path if messages_module else None,
        "message_kinds": kinds,
        "arms": {name: arms[name] for name in sorted(arms)},
        "has_default_arm": has_default,
        "unhandled": sorted(set(kinds) - set(arms)) if not has_default else [],
    }


def _subjects(index, dispatcher):
    """Names that hold the dispatched message.

    The first positional parameter after ``self``, plus locals bound to
    one of its attributes — ``payload = message.payload``, the form the
    Wackamole daemon uses to unwrap a group-delivered message.
    """
    names = [arg.arg for arg in dispatcher.args.args if arg.arg != "self"]
    if not names:
        return set()
    subjects = {names[0]}
    for node in index.walk(dispatcher):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == names[0]
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    subjects.add(target.id)
    return subjects


def _type_aliases(index, dispatcher, subjects):
    """Locals bound to ``type(<subject>)`` — the hoisted dispatch key."""
    aliases = set()
    for node in index.walk(dispatcher):
        if isinstance(node, ast.Assign) and _is_type_of(node.value, subjects):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    return aliases


def _is_type_of(node, subjects):
    """True for ``type(<subject>)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id in subjects
    )


def _dispatch_arms(index, body, subjects, aliases):
    """``{message class name: sorted handler-call targets}`` plus else-arm."""
    arms = {}
    has_default = False
    for statement in body:
        if not isinstance(statement, ast.If):
            continue
        node = statement
        chain_matched = False
        while True:
            name = _arm_class_name(node.test, subjects, aliases)
            if name is not None:
                chain_matched = True
                arms.setdefault(name, _handler_calls(index, node.body))
            orelse = node.orelse
            if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                node = orelse[0]
                continue
            if orelse and chain_matched:
                has_default = True
            break
    return arms, has_default


def _arm_class_name(test, subjects, aliases):
    """The class a dispatch test selects, or None.

    Recognized: ``<alias> is Cls`` (alias hoisted via ``type(subject)``),
    ``type(subject) is Cls``, and ``isinstance(subject, Cls)``.
    """
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        if not isinstance(test.ops[0], ast.Is):
            return None
        left, right = test.left, test.comparators[0]
        if not isinstance(right, ast.Name):
            return None
        if (isinstance(left, ast.Name) and left.id in aliases) or _is_type_of(
            left, subjects
        ):
            return right.id
    if (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
        and len(test.args) == 2
        and isinstance(test.args[0], ast.Name)
        and test.args[0].id in subjects
        and isinstance(test.args[1], ast.Name)
    ):
        return test.args[1].id
    return None


def _handler_calls(index, statements):
    """Sorted dotted targets of the calls an arm makes (``self.…`` only)."""
    targets = set()
    for statement in statements:
        for node in index.walk(statement):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is not None and dotted.startswith("self."):
                    targets.add(dotted)
    return sorted(targets)


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        if base is None:
            return None
        return "{}.{}".format(base, node.attr)
    return None


def _wire_classes(module):
    """Plain top-level classes (no bases) not marked ``# repro: not-wire``."""
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef) or node.bases or node.keywords:
            continue
        if is_not_wire(module.line_text(node.lineno)):
            continue
        yield node


# ----------------------------------------------------------------------


def _extract_states(extracted):
    spec = extracted.spec
    module = extracted.module
    constants = {}
    for statement in module.tree.body:
        if isinstance(statement, ast.Assign) and isinstance(statement.value, ast.Constant):
            if isinstance(statement.value.value, str):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = statement.value.value
    handlers = {}
    used_states = set()
    for item in extracted.class_node.body:
        if not isinstance(item, ast.FunctionDef):
            continue
        guards, assigns = _state_usage(module.index, item, spec.state_attr, constants)
        if not guards and not assigns:
            continue
        used_states.update(guards)
        used_states.update(assigns)
        handlers[item.name] = {"guards": sorted(guards), "assigns": sorted(assigns)}
    extracted.state_constants = {
        name: value for name, value in constants.items() if value in used_states
    }
    extracted.data = {
        "name": spec.name,
        "kind": "states",
        "module": module.path,
        "class": spec.class_name,
        "state_attr": spec.state_attr,
        "states": sorted(used_states),
        "handlers": {name: handlers[name] for name in sorted(handlers)},
    }


def _state_usage(index, func_node, state_attr, constants):
    """State values a method compares against and assigns, as two sets."""
    guards = set()
    assigns = set()
    for node in index.walk(func_node):
        if isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            if any(_is_self_attr(op, state_attr) for op in operands):
                for operand in operands:
                    guards.update(_state_values(operand, constants))
        elif isinstance(node, ast.Assign):
            if any(_is_self_attr(t, state_attr) for t in node.targets):
                assigns.update(_state_values(node.value, constants))
    return guards, assigns


def _is_self_attr(node, attr):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _state_values(node, constants):
    """State string values an expression can denote."""
    if isinstance(node, ast.Name) and node.id in constants:
        return {constants[node.id]}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        values = set()
        for element in node.elts:
            values.update(_state_values(element, constants))
        return values
    return set()


def state_assign_targets(index, func_node, state_attr, constants):
    """``(node, values)`` for every ``self.<state_attr> = …`` in a method.

    ``values`` is empty when the assigned expression is not a
    recognizable state constant — the PROTO003 trigger.
    """
    out = []
    for node in index.walk(func_node):
        if isinstance(node, ast.Assign) and any(
            _is_self_attr(t, state_attr) for t in node.targets
        ):
            out.append((node, _state_values(node.value, constants)))
    return out


# ----------------------------------------------------------------------


def _extract_declared(extracted):
    spec = extracted.spec
    module = extracted.module
    constants = {}
    states_literal = None
    transitions_literal = None
    for statement in module.tree.body:
        if not isinstance(statement, ast.Assign):
            continue
        for target in statement.targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(statement.value, ast.Constant) and isinstance(
                statement.value.value, str
            ):
                constants[target.id] = statement.value.value
            if target.id == spec.states_name:
                states_literal = statement.value
            elif target.id == spec.transitions_name:
                transitions_literal = statement.value
    states = sorted(_state_values(states_literal, constants)) if states_literal else []
    transitions = []
    for triple in _transition_triples(transitions_literal):
        resolved = [_one_state_value(part, constants) for part in triple.elts]
        if all(value is not None for value in resolved):
            transitions.append(resolved)
    extracted.state_constants = constants
    extracted.data = {
        "name": spec.name,
        "kind": "declared",
        "module": module.path,
        "class": spec.class_name,
        "states": states,
        "transitions": sorted(transitions),
    }


def _transition_triples(node):
    """The 3-tuples inside ``frozenset({...})`` / set / tuple literals."""
    if node is None:
        return
    container = node
    if isinstance(container, ast.Call) and container.args:
        container = container.args[0]
    if isinstance(container, (ast.Set, ast.Tuple, ast.List)):
        for element in container.elts:
            if isinstance(element, ast.Tuple) and len(element.elts) == 3:
                yield element


def _one_state_value(node, constants):
    values = _state_values(node, constants)
    if len(values) == 1:
        return next(iter(values))
    return None


def _top_level_class(tree, name):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None

"""The flow layers under the rules: call graph, dataflow, state machines."""

import json
import os

import pytest

from repro.analysis import LintConfig, load_project
from repro.analysis.callgraph import module_dotted_name

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "docs", "state-machines.json"
)


def project_from(tmp_path, files):
    for name, source in files.items():
        (tmp_path / name).write_text(source)
    return load_project(
        [str(tmp_path / name) for name in files], LintConfig()
    )


class TestModuleNames:
    def test_repro_tree_paths_get_package_dotted_names(self):
        assert module_dotted_name("src/repro/gcs/daemon.py") == "repro.gcs.daemon"
        assert module_dotted_name("src/repro/net/__init__.py") == "repro.net"

    def test_loose_files_use_their_stem(self):
        assert module_dotted_name("tests/analysis/fixtures/x.py") == "x"


class TestCallGraphResolution:
    def test_bare_name_resolves_to_module_function(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mod.py": (
                    "def helper():\n"
                    "    return 1\n"
                    "\n"
                    "def caller():\n"
                    "    return helper()\n"
                )
            },
        )
        graph = project.callgraph()
        assert graph.edges["mod.caller"] == ["mod.helper"]

    def test_self_method_resolves_through_inheritance(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mod.py": (
                    "class Base:\n"
                    "    def step(self):\n"
                    "        return 0\n"
                    "\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.step()\n"
                )
            },
        )
        graph = project.callgraph()
        assert graph.edges["mod.Child.run"] == ["mod.Base.step"]

    def test_imported_module_attribute_resolves(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "util.py": "def pick():\n    return 2\n",
                "app.py": (
                    "import util\n"
                    "\n"
                    "def go():\n"
                    "    return util.pick()\n"
                ),
            },
        )
        graph = project.callgraph()
        assert graph.edges["app.go"] == ["util.pick"]

    def test_constructor_call_records_class_and_init(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mod.py": (
                    "class Widget:\n"
                    "    def __init__(self):\n"
                    "        self.size = 0\n"
                    "\n"
                    "def make():\n"
                    "    return Widget()\n"
                )
            },
        )
        graph = project.callgraph()
        assert graph.constructs["mod.make"] == ["mod.Widget"]
        assert graph.edges["mod.make"] == ["mod.Widget.__init__"]

    def test_unresolvable_calls_produce_no_edges(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mod.py": (
                    "def go(thing):\n"
                    "    thing.spin()\n"
                    "    return unknown()\n"
                )
            },
        )
        assert project.callgraph().edges["mod.go"] == []

    def test_reaching_classes_crosses_module_functions(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mod.py": (
                    "def shared():\n"
                    "    return 1\n"
                    "\n"
                    "class Alpha:\n"
                    "    def tick(self):\n"
                    "        return shared()\n"
                    "\n"
                    "class Beta:\n"
                    "    def tick(self):\n"
                    "        return shared()\n"
                )
            },
        )
        graph = project.callgraph()
        assert graph.reaching_classes("mod.shared") == ["mod.Alpha", "mod.Beta"]


class TestDataflow:
    def test_param_escape_direct_and_through_call(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mod.py": (
                    "_CACHE = {}\n"
                    "\n"
                    "def store(item):\n"
                    "    _CACHE['last'] = item\n"
                    "\n"
                    "def relay(thing):\n"
                    "    store(thing)\n"
                    "\n"
                    "def consume(value):\n"
                    "    return value + 1\n"
                )
            },
        )
        dataflow = project.dataflow()
        assert dataflow.param_escapes("mod.store", "item")
        # escape propagates one call deep through the fixed point
        assert dataflow.param_escapes("mod.relay", "thing")
        assert not dataflow.param_escapes("mod.consume", "value")

    def test_call_results_are_new_values_not_captures(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mod.py": (
                    "def draw(rng):\n"
                    "    return rng.random()\n"
                    "\n"
                    "class Box:\n"
                    "    def fill(self, rng):\n"
                    "        self.value = draw(rng)\n"
                )
            },
        )
        dataflow = project.dataflow()
        # storing draw(rng)'s *result* does not capture rng itself
        assert not dataflow.param_escapes("mod.Box.fill", "rng")

    def test_global_mutators_are_sorted_and_module_scoped(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mod.py": (
                    "_QUEUE = []\n"
                    "\n"
                    "def push(x):\n"
                    "    _QUEUE.append(x)\n"
                    "\n"
                    "def drop():\n"
                    "    _QUEUE.pop()\n"
                )
            },
        )
        dataflow = project.dataflow()
        path = next(iter(dataflow.mutable_globals))
        assert dataflow.mutable_globals[path] == {"_QUEUE"}
        assert dataflow.global_mutators(path, "_QUEUE") == [
            "mod.drop",
            "mod.push",
        ]

    def test_summary_reads_the_body_not_the_header(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mod.py": (
                    "_LOG = []\n"
                    "\n"
                    "@_LOG.sort()\n"
                    "def pick(key=_LOG.append(0)) -> _LOG.pop():\n"
                    "    return key\n"
                )
            },
        )
        # the decorator, default and annotation run where the `def` runs
        assert project.dataflow().summaries["mod.pick"].global_mutations == set()

    def test_two_builds_summarize_identically(self, tmp_path):
        source = {
            "mod.py": (
                "_STATE = {}\n"
                "\n"
                "class Node:\n"
                "    def record(self, key, value):\n"
                "        self.log = value\n"
                "        _STATE[key] = value\n"
            )
        }
        first = project_from(tmp_path, source).dataflow()
        second = load_project(
            [str(tmp_path / "mod.py")], LintConfig()
        ).dataflow()
        as_dict = lambda df: {q: s.to_dict() for q, s in df.summaries.items()}
        assert as_dict(first) == as_dict(second)


class TestStateMachineArtifact:
    @pytest.fixture
    def machines(self, state_machines):
        return {m["name"]: m for m in json.loads(state_machines)["machines"]}

    def test_double_render_is_byte_identical(self, state_machines, cli_state_machines):
        # The CLI's render is the session's second one.
        assert cli_state_machines[1] == state_machines

    def test_committed_golden_file_matches_regeneration(self, state_machines):
        with open(GOLDEN, encoding="utf-8") as handle:
            committed = json.load(handle)
        assert committed == json.loads(state_machines)

    def test_daemon_machine_golden_shape(self, machines):
        daemon = machines["gcs.daemon"]
        assert daemon["kind"] == "dispatch"
        assert daemon["class"] == "SpreadDaemon"
        assert daemon["dispatcher"] == "_on_datagram"
        assert daemon["unhandled"] == []
        assert not daemon["has_default_arm"]
        # every wire kind of the messages module has exactly its arm
        assert set(daemon["arms"]) == set(daemon["message_kinds"])
        assert daemon["arms"]["OrderedMsg"] == ["self._on_ordered"]
        assert "self.membership.on_join" in daemon["arms"]["JoinMsg"]

    def test_membership_machine_states_and_guards(self, machines):
        membership = machines["gcs.membership"]
        assert membership["kind"] == "states"
        assert membership["states"] == [
            "ack_sent",
            "form_sent",
            "gather",
            "operational",
        ]
        on_ack = membership["handlers"]["on_ack"]
        assert on_ack["guards"] == ["form_sent"]

    def test_declared_machine_lists_all_transitions(self, machines):
        wackamole = machines["core.wackamole"]
        assert wackamole["kind"] == "declared"
        assert wackamole["states"] == ["BALANCE", "GATHER", "RUN"]
        assert len(wackamole["transitions"]) == 7

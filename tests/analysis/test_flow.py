"""The state-machine extraction behind `repro lint --state-machines`."""

import json
import os

import pytest

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "docs", "state-machines.json"
)


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

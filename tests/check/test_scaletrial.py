"""Scale-stack trials through the one runner: pass, fail, shrink, replay.

The fast tests run 32- and 64-host segmented clusters end to end. The
``slow``-marked one is the default 64-host cluster under three
crash/revive pairs: single-owner coverage holds and the result replays
byte-identical.
"""

import json

import pytest

from repro.check import build_trial_spec, campaign_params
from repro.check.campaign import make_artifact
from repro.check.schedule import FaultEvent, FaultSchedule, scale_schedule
from repro.check.shrink import shrink_spec
from repro.check.trial import SPEC_DEFAULTS, make_spec, run_trial
from repro.cli import main
from repro.sim.shard.merge import artifact_bytes


def scale_spec(seed, n_hosts=32, n_vips=128, segment_size=8, n_faults=3, **overrides):
    schedule = scale_schedule(seed, n_hosts, segment_size, n_faults)
    return make_spec(seed, schedule, stack="scale", n_servers=n_hosts, n_vips=n_vips,
                     segment_size=segment_size, **overrides)


def replay_identical(spec):
    first = json.dumps(run_trial(spec), sort_keys=True)
    second = json.dumps(run_trial(spec), sort_keys=True)
    return first == second


def test_spec_defaults_are_complete():
    spec = make_spec(9, FaultSchedule([], 5.0), stack="scale")
    assert set(spec) == set(SPEC_DEFAULTS) | {"seed", "schedule"}


def test_a_scale_campaign_draws_the_scale_row():
    params = campaign_params(base_seed=5, trials=1, n_servers=32, n_vips=128,
                             horizon=14.0, events_per_trial=2, stack="scale", segment_size=8)
    spec = build_trial_spec(params, 0)
    assert spec["schedule"] == scale_schedule(spec["seed"], 32, 8, 2).to_dict()
    assert run_trial(spec)["verdict"] == "pass"


@pytest.mark.parametrize(
    "event, flags",
    [
        (FaultEvent("nic_flap", 1.0, host=0, duration=1.0), {}),
        (FaultEvent("partition", 1.0, split=[0], duration=1.0), {}),
        (FaultEvent("crash", 1.0, host=0, duration=1.0), {"gray": True}),
        (FaultEvent("crash", 1.0, host=0, duration=1.0), {"fixture": "broken-balance"}),
    ],
    ids=["nic-flap", "partition", "gray", "fixture"],
)
def test_what_the_scale_stack_cannot_run_yet_is_a_value_error(event, flags):
    spec = make_spec(1, FaultSchedule([event], 5.0), stack="scale", n_servers=32, **flags)
    with pytest.raises(ValueError, match="scale stack"):
        run_trial(spec)


def test_a_spec_with_two_shards_is_a_serial_vs_sharded_parity_check():
    drawn = scale_schedule(11, 64, 16, 2, spacing=3.0, revive_after=4.0)
    spec = make_spec(11, FaultSchedule(drawn.events, drawn.tail_time() + 8.0), stack="scale",
                     n_servers=64, n_vips=256, shards=2)
    result = run_trial(spec)
    assert result["verdict"] == "pass"
    assert result["sim_time"] == 18.0
    serial, sharded = result["serial_artifact"], result["sharded_artifact"]
    assert artifact_bytes(serial) == artifact_bytes(sharded)
    assert serial["meta"]["kills"] == [[e.time, e.host] for e in drawn.events]


@pytest.mark.slow
def test_default_64_host_campaign_holds_single_owner_coverage():
    spec = scale_spec(20260808, n_hosts=64, n_vips=512, segment_size=16)
    result = run_trial(spec)
    assert result["verdict"] == "pass", result
    # The coverage engine saw no persistent duplicate owner and the
    # final settled state covers every VIP exactly once.
    assert result["coverage"]["failures"] == []
    assert result["uncovered"] == 0 and result["duplicated"] == 0
    assert replay_identical(spec)


def test_a_vip_unbound_in_a_settled_view_past_the_grace_is_a_violation(monkeypatch):
    # Behind its manager's back, for 4 s against the scale row's 3.0 s.
    from repro.apps.scalecluster import ScaleClusterScenario

    def apply_schedule(self, schedule, start):
        manager = self.managers[0]
        vip = min(manager.bound)
        self.sim.at(start + 1.0, manager.nic.unbind_ip, vip)
        self.sim.at(start + 5.0, manager.nic.bind_ip, vip)

    monkeypatch.setattr(ScaleClusterScenario, "apply_schedule", apply_schedule)
    result = run_trial(make_spec(5, FaultSchedule([], 8.0), stack="scale", n_servers=32,
                                 n_vips=128, segment_size=8))
    assert result["verdict"] == "violation"
    assert result["violation_kinds"] == ["uncovered"]


@pytest.mark.parametrize("planted", [1, 3])
def test_a_planted_persistent_duplicate_fails_the_trial_in_any_cell(
    monkeypatch, tmp_path, capsys, planted
):
    # The planted bug, in one cell's managers only: a manager never
    # releases a slot it once held, so after a revival the heirs keep
    # the returning host's VIPs. Seed 7 kills host 25 (cell 3), then 8
    # (cell 1), then 3 (cell 0); each cell's duplicates alone fail it.
    from repro.apps.scalecluster import ScaleVipManager

    apply_view = ScaleVipManager.apply_view

    def hoarding_apply_view(self, view):
        held = set(self.bound) if self.cell.cell_id == planted else set()
        apply_view(self, view)
        for vip in sorted(held - self.bound):
            self.nic.bind_ip(vip)
        self.bound |= held

    monkeypatch.setattr(ScaleVipManager, "apply_view", hoarding_apply_view)
    spec = scale_spec(7)
    result = run_trial(spec)
    assert result["verdict"] == "violation"
    assert result["violation_kinds"] == ["duplicate"]
    # 128 VIPs over 4 cells: 10.32.128.(32 c + 1) upward is cell c's.
    failures = result["coverage"]["failures"]
    assert {(int(f["slot"].split(".")[3]) - 1) // 32 for f in failures} == {planted}

    # It shrinks to the one crash in the planted cell...
    shrunk, shrunk_result, _ = shrink_spec(spec, baseline=result)
    (event,) = shrunk["schedule"]["events"]
    assert event["host"] == {1: 8, 3: 25}[planted]
    assert shrunk_result["violation_kinds"] == ["duplicate"]
    # ...and its artifact replays identically through the CLI.
    path = tmp_path / "scale.json"
    path.write_text(json.dumps(make_artifact(shrunk, shrunk_result, spec, result)))
    assert main(["check", "--replay", str(path)], out=print) == 0
    assert "identical reproduction" in capsys.readouterr().out

"""Scale-tier check trials: fault campaigns on segmented clusters.

The fast test runs a small trial end to end and replays it for byte
identity. The ``slow``-marked campaign is ISSUE 6 satellite 3: the
default 64-host segmented cluster survives a multi-fault schedule with
the single-owner-coverage invariant intact, and the recorded artifact
replays byte-identical.
"""

import json

import pytest

from repro.check.trial import (
    SCALE_SPEC_DEFAULTS,
    make_scale_spec,
    run_scale_trial,
)


def replay_identical(spec):
    first = json.dumps(run_scale_trial(spec), sort_keys=True)
    second = json.dumps(run_scale_trial(spec), sort_keys=True)
    return first == second


def test_small_trial_passes_and_replays():
    spec = make_scale_spec(
        seed=3, n_hosts=32, n_vips=128, segment_size=8, n_faults=2
    )
    result = run_scale_trial(spec)
    assert result["verdict"] == "pass", result
    assert result["uncovered"] == 0 and result["duplicated"] == 0
    assert len(result["fault_log"]) >= spec["n_faults"]
    assert replay_identical(spec)


def test_spec_rejects_unknown_fields():
    with pytest.raises(ValueError):
        make_scale_spec(seed=1, bogus_knob=7)


def test_spec_defaults_are_complete():
    spec = make_scale_spec(seed=9)
    assert set(spec) == set(SCALE_SPEC_DEFAULTS) | {"seed"}


@pytest.mark.slow
def test_default_64_host_campaign_holds_single_owner_coverage():
    spec = make_scale_spec(seed=20260808)
    result = run_scale_trial(spec)
    assert result["verdict"] == "pass", result
    # The sampled auditor saw no persistent duplicate owner and the
    # final settled state covers every VIP exactly once.
    assert result["uncovered"] == 0 and result["duplicated"] == 0
    assert result["n_hosts"] == 64 and result["n_vips"] == 512
    assert replay_identical(spec)


@pytest.mark.parametrize("planted", [1, 3])
def test_a_planted_persistent_duplicate_fails_the_trial_in_any_cell(monkeypatch, planted):
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
    spec = make_scale_spec(seed=7, n_hosts=32, n_vips=128, segment_size=8, n_faults=3)
    result = run_scale_trial(spec)
    assert result["verdict"] == "violation"
    # 128 VIPs over 4 cells: 10.32.128.(32 c + 1) upward is cell c's.
    cells = {(int(vip.split(".")[3]) - 1) // 32 for vip in result["persistent_duplicates"]}
    assert cells == {planted}

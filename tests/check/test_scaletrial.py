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

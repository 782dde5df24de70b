"""End-to-end campaigns: find the planted bug, shrink it, replay it.

This is the acceptance test for the whole repro.check pipeline: a
campaign against the deliberately broken balance variant must find an
invariant violation, minimize the schedule to a handful of events, and
the saved artifact must replay byte-identically — twice.
"""

import json
import os

from repro.check import build_specs, load_artifact, replay, run_campaign


def test_planted_bug_found_shrunk_and_replayed(tmp_path):
    report = run_campaign(
        base_seed=1,
        trials=3,
        workers=1,
        fixture="broken-balance",
        horizon=30.0,
        events_per_trial=6,
        artifacts_dir=tmp_path,
    )
    # The campaign must find the planted bug.
    assert not report.passed
    assert "violation" in report.verdicts
    assert report.failures and report.artifacts

    artifact = load_artifact(report.artifacts[0])
    # ...shrink the schedule to at most 3 fault events...
    assert len(artifact["spec"]["schedule"]["events"]) <= 3
    assert artifact["original_events"] == 6
    assert artifact["result"]["verdict"] == "violation"
    assert artifact["result"]["trace_tail"]

    # ...and replay it byte-identically, twice in a row.
    first = replay(report.artifacts[0])
    second = replay(report.artifacts[0])
    assert first.match and second.match
    assert first.result == second.result
    assert first.result["trace_tail"] == artifact["result"]["trace_tail"]


def test_standard_fixture_campaign_is_clean(tmp_path):
    report = run_campaign(
        base_seed=7,
        trials=3,
        workers=1,
        fixture="standard",
        horizon=30.0,
        events_per_trial=6,
        artifacts_dir=tmp_path,
    )
    assert report.passed
    assert report.verdicts == ["pass"] * 3
    assert os.listdir(str(tmp_path)) == []


def test_specs_are_order_independent():
    specs = build_specs(base_seed=9, trials=4, horizon=25.0, events_per_trial=5)
    # Forked per-trial seeds: same spec regardless of batch size/order.
    alone = build_specs(base_seed=9, trials=2, horizon=25.0, events_per_trial=5)
    assert specs[:2] == alone
    assert len({spec["seed"] for spec in specs}) == len(specs)


def test_artifact_is_valid_json_on_disk(tmp_path):
    report = run_campaign(
        base_seed=1,
        trials=1,
        workers=1,
        fixture="broken-balance",
        horizon=30.0,
        events_per_trial=6,
        artifacts_dir=tmp_path,
    )
    with open(report.artifacts[0]) as handle:
        raw = json.load(handle)
    assert raw["format"] == "repro-check/1"
    assert raw["spec"]["fixture"] == "broken-balance"


def test_report_format_mentions_failures(tmp_path):
    report = run_campaign(
        base_seed=1,
        trials=1,
        workers=1,
        fixture="broken-balance",
        horizon=30.0,
        events_per_trial=6,
        artifacts_dir=tmp_path,
    )
    text = report.format()
    assert "FAILURE" in text
    assert "shrunk to" in text


# ----------------------------------------------------------------------
# warm-worker fan-out: spec purity and serial/parallel identity


def test_build_trial_spec_is_pure_and_matches_build_specs():
    from repro.check import build_trial_spec, campaign_params

    params = campaign_params(base_seed=11, trials=4, horizon=20.0, events_per_trial=4)
    specs = build_specs(base_seed=11, trials=4, horizon=20.0, events_per_trial=4)
    rebuilt = [build_trial_spec(params, index) for index in range(4)]
    assert rebuilt == specs
    # Same (params, index) -> same spec, regardless of build order.
    assert build_trial_spec(params, 2) == specs[2]


def test_parallel_verdicts_identical_to_serial():
    from repro.check import campaign_params, run_campaign_trials

    params = campaign_params(
        base_seed=5, trials=4, horizon=20.0, events_per_trial=4, fixture="standard"
    )
    serial = run_campaign_trials(params, workers=1)
    parallel = run_campaign_trials(params, workers=2)
    assert serial == parallel


# ----------------------------------------------------------------------
# gray campaigns (hardened cluster vs the gray repertoire)


def test_gray_campaign_is_clean_and_replays_identically(tmp_path):
    kwargs = dict(
        base_seed=20260806,
        trials=2,
        workers=1,
        horizon=30.0,
        events_per_trial=6,
        artifacts_dir=tmp_path,
        gray=True,
    )
    report = run_campaign(**kwargs)
    assert report.passed
    assert os.listdir(str(tmp_path)) == []
    # Gray trials carry the applied fault timeline in their results.
    assert all(result["fault_log"] for result in report.results)
    # Byte-identical re-run: the campaign is a pure function of kwargs.
    again = run_campaign(**kwargs)
    assert again.results == report.results


def test_gray_flag_changes_schedules_but_not_seeds():
    plain = build_specs(base_seed=3, trials=2, horizon=20.0, events_per_trial=5)
    gray = build_specs(
        base_seed=3, trials=2, horizon=20.0, events_per_trial=5, gray=True
    )
    assert [s["seed"] for s in plain] == [s["seed"] for s in gray]
    assert plain[0]["schedule"] != gray[0]["schedule"]
    assert plain[0]["gray"] is False and gray[0]["gray"] is True


# ----------------------------------------------------------------------
# corruption campaigns (self-stabilizing cluster vs arbitrary state)


def test_corrupt_campaign_is_clean_and_replays_identically(tmp_path):
    kwargs = dict(
        base_seed=20260806,
        trials=2,
        workers=1,
        horizon=30.0,
        events_per_trial=8,
        artifacts_dir=tmp_path,
        corrupt=True,
    )
    report = run_campaign(**kwargs)
    assert report.passed
    assert os.listdir(str(tmp_path)) == []
    # Corrupt trials carry the detect-and-repair spans in their results.
    assert all("stabilization" in result for result in report.results)
    # Byte-identical re-run: mutation choices come from the dedicated
    # fault/corrupt stream, so the campaign stays a pure function of
    # its kwargs — spans, fault params and all.
    again = run_campaign(**kwargs)
    assert again.results == report.results
    assert json.dumps(again.results, sort_keys=True) == json.dumps(
        report.results, sort_keys=True
    )


def test_corrupt_flag_changes_schedules_but_not_seeds():
    plain = build_specs(base_seed=3, trials=2, horizon=20.0, events_per_trial=5)
    corrupt = build_specs(
        base_seed=3, trials=2, horizon=20.0, events_per_trial=5, corrupt=True
    )
    assert [s["seed"] for s in plain] == [s["seed"] for s in corrupt]
    assert plain[0]["schedule"] != corrupt[0]["schedule"]
    assert plain[0]["corrupt"] is False and corrupt[0]["corrupt"] is True

"""Replay compares every key of a result, for each kind of artifact.

One trial per kind. :class:`ReplayReport` is a pure comparison of a
saved result with a fresh one, so the untouched artifact must match the
very result it was saved from, and changing, dropping or adding any one
saved key must diverge on exactly that key. Whether a fresh run
reproduces the saved one is for the tests that replay real runs: the
campaign tests, the CLI's planted-bug test and the scale stack's
planted duplicate.
"""

import json

import pytest

from repro.check import build_trial_spec, campaign_params
from repro.check.campaign import make_artifact
from repro.check.replay import ReplayReport, checked_artifact
from repro.check.schedule import FaultSchedule, generate_schedule, scale_schedule
from repro.check.trial import make_spec, run_trial
from repro.sim.rng import RngRegistry


def gray_spec(seed=404):
    schedule = generate_schedule(RngRegistry(seed).stream("schedule"), n_hosts=4,
                                 horizon=25.0, n_events=6, gray=True)
    return make_spec(seed, schedule, n_servers=4, n_vips=6, gray=True)


def parity_spec(seed=11):
    drawn = scale_schedule(seed, 64, 16, 2, spacing=3.0, revive_after=4.0)
    return make_spec(seed, FaultSchedule(drawn.events, drawn.tail_time() + 8.0), stack="scale",
                     n_servers=64, n_vips=256, shards=2, workers=0)


#: kind -> (spec, what its result must hold before any tampering);
#: ``faults_logged`` is the length of its ``fault_log``.
KINDS = {
    # Seed 1's first trial against the planted balance bug, as the CLI
    # test finds it, with a flow plane so the result carries ``flow``.
    "standard": (lambda: build_trial_spec(campaign_params(
        base_seed=1, trials=1, horizon=30.0, events_per_trial=6,
        fixture="broken-balance", flow_users=1000), 0), {"verdict": "violation"}),
    "gray": (gray_spec, {"verdict": "pass"}),
    "corrupt": (lambda: build_trial_spec(campaign_params(
        base_seed=2004, trials=1, n_servers=5, n_vips=10, horizon=30.0,
        events_per_trial=6, corrupt=True), 0), {"verdict": "pass"}),
    "scale": (lambda: make_spec(3, scale_schedule(3, 32, 8, 2), stack="scale", n_servers=32,
                                n_vips=128, segment_size=8),
              {"verdict": "pass", "uncovered": 0, "duplicated": 0, "faults_logged": 4}),
    "parity": (parity_spec, {"verdict": "pass", "sim_time": 18.0}),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_replay_diverges_on_exactly_the_tampered_key(kind):
    make, expected = KINDS[kind]
    spec = make()
    result = run_trial(spec)
    held = dict(result, faults_logged=len(result.get("fault_log", ())))
    assert {key: held[key] for key in expected} == expected
    # Saved the way a campaign saves it: through JSON, tuples and all.
    artifact = checked_artifact(json.loads(json.dumps(make_artifact(spec, result))))
    report = ReplayReport(artifact, result)
    assert report.match, report.diffs
    assert "identical reproduction" in report.format()

    saved = artifact["result"]
    tampers = [(key, [value]) for key, value in saved.items()]
    # The probes that once passed as identical reproductions.
    if "stabilization" in saved:
        assert saved["stabilization"]
        tampers.append(("stabilization", []))
    if "events_fired" in saved:
        tampers.append(("events_fired", -1))

    def diffs(tampered):
        return ReplayReport(dict(artifact, result=tampered), result).diffs

    for key, value in tampers:
        assert diffs(dict(saved, **{key: value})) == [key]
    for key in saved:
        assert diffs({k: v for k, v in saved.items() if k != key}) == [key]
    assert diffs(dict(saved, unheard_of=0)) == ["unheard_of"]

"""The flow plane's determinism contract.

Double runs of the same seed must produce byte-identical fingerprints,
and a ``repro check`` trial carrying flow totals must replay
byte-identically, every result key alike.
"""

import json

from repro.apps.webcluster import WebClusterScenario
from repro.check.replay import ReplayReport
from repro.check.schedule import CRASH, FaultEvent, FaultSchedule
from repro.check.trial import make_spec, run_trial
from repro.gcs.config import SpreadConfig


def run_web_failover(seed, users=50_000):
    scenario = WebClusterScenario(
        seed=seed,
        n_servers=3,
        n_vips=6,
        spread_config=SpreadConfig.tuned(),
        flow_users=users,
    )
    scenario.start()
    assert scenario.run_until_stable()
    scenario.kill_owner_of(scenario.vips[0], mode="nic_down")
    scenario.sim.run_for(8.0)
    return scenario


def fingerprint_bytes(scenario):
    return json.dumps(scenario.flow_engine.fingerprint(), sort_keys=True)


def test_double_run_fingerprints_byte_identical():
    first = fingerprint_bytes(run_web_failover(11))
    second = fingerprint_bytes(run_web_failover(11))
    assert first == second


def test_check_trial_with_flow_totals_replays_byte_identically():
    schedule = FaultSchedule(
        [FaultEvent(CRASH, 2.0, host=1, duration=6.0)], horizon=20.0
    )
    spec = make_spec(4242, schedule, flow_users=20_000)
    result = run_trial(spec)
    assert result["verdict"] == "pass"
    assert "flow" in result
    assert result["flow"]["offered"] > 0
    assert result["metrics"]["flow.requests_offered"] == result["flow"]["offered"]
    artifact = {"spec": spec, "result": result}
    report = ReplayReport(artifact, run_trial(spec))
    assert report.match, "replay diverged on: {}".format(report.diffs)


def test_trials_without_flow_are_untouched():
    # flow_users=0 must not change historical trial results at all: no
    # engine, no flow key, no flow metrics.
    schedule = FaultSchedule(
        [FaultEvent(CRASH, 2.0, host=1, duration=6.0)], horizon=20.0
    )
    result = run_trial(make_spec(4242, schedule))
    assert "flow" not in result
    assert not any(name.startswith("flow.") for name in result["metrics"])

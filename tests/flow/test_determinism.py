"""The flow plane's determinism contract.

Double runs of the same seed must produce byte-identical fingerprints;
the numpy and pure-python backends must agree bit-for-bit on identical
seeds; and a ``repro check`` trial carrying flow totals must replay
byte-identically, every result key alike.
"""

import json

from repro.apps.webcluster import WebClusterScenario
from repro.check.replay import ReplayReport
from repro.check.schedule import CRASH, FaultEvent, FaultSchedule
from repro.check.trial import make_spec, run_trial
from repro.gcs.config import SpreadConfig

from helpers import flow_backend


def run_web_failover(seed, use_numpy=True, users=50_000):
    with flow_backend(use_numpy):
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


def test_numpy_and_pure_python_backends_agree():
    auto = run_web_failover(13)
    pure = run_web_failover(13, use_numpy=False)
    assert not pure.flow_engine.use_numpy
    assert fingerprint_bytes(auto) == fingerprint_bytes(pure)
    # The whole simulation, not just the engine, must agree: metrics
    # totals include every layer the flow plane touched, and no trace
    # record says which backend ran.
    assert auto.sim.metrics.totals() == pure.sim.metrics.totals()
    assert [repr(r) for r in auto.sim.trace.records] == [
        repr(r) for r in pure.sim.trace.records
    ]


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

"""Trial runner: verdicts are deterministic functions of the spec."""

import pytest

from repro.check.schedule import FaultEvent, FaultSchedule, generate_schedule
from repro.check.trial import make_spec, result_signature, run_trial
from repro.sim.rng import RngRegistry


def small_spec(seed=42, fixture="standard", events=None, horizon=20.0):
    if events is None:
        schedule = generate_schedule(
            RngRegistry(seed).stream("schedule"), n_hosts=3, horizon=horizon, n_events=4
        )
    else:
        schedule = FaultSchedule(events, horizon)
    return make_spec(seed, schedule, n_servers=3, n_vips=4, fixture=fixture)


def test_empty_schedule_passes():
    spec = small_spec(events=[])
    result = run_trial(spec)
    assert result["verdict"] == "pass"
    assert result["events_fired"] > 0


def test_standard_daemon_survives_random_schedule():
    result = run_trial(small_spec(seed=77))
    assert result["verdict"] == "pass"


def test_trial_is_deterministic():
    spec = small_spec(seed=123)
    assert run_trial(spec) == run_trial(spec)


def test_single_crash_recovers_cleanly():
    spec = small_spec(events=[FaultEvent("crash", 2.0, host=0, duration=4.0)])
    result = run_trial(spec)
    assert result["verdict"] == "pass"
    assert result["restarts"] == 1


def test_broken_balance_fixture_fails_after_one_crash():
    spec = small_spec(
        fixture="broken-balance",
        events=[FaultEvent("crash", 2.0, host=0, duration=4.0)],
    )
    result = run_trial(spec)
    assert result["verdict"] == "violation"
    assert result["violation_kinds"] == ["duplicate"]
    assert result["violations"]
    assert result["trace_tail"]


def test_failure_results_carry_signature():
    spec = small_spec(
        fixture="broken-balance",
        events=[FaultEvent("crash", 2.0, host=0, duration=4.0)],
    )
    result = run_trial(spec)
    assert result_signature(result) == ("violation", ("duplicate",))


def test_unknown_fixture_rejected():
    with pytest.raises(ValueError):
        run_trial(small_spec(fixture="nonexistent", events=[]))


def test_unknown_spec_field_rejected():
    with pytest.raises(ValueError):
        make_spec(1, FaultSchedule([], 10.0), bogus_field=1)


@pytest.mark.parametrize(
    "sizes, limit",
    [({"n_vips": 101}, "at most 100"), ({"n_servers": 91}, "at most 90")],
)
def test_address_plan_collisions_fail_loudly(sizes, limit):
    # VIP .200 would also be the flow clients' address; server .100
    # would also be the first VIP.
    spec = make_spec(1, FaultSchedule([], 10.0), **sizes)
    with pytest.raises(ValueError, match=limit):
        run_trial(spec)


# ----------------------------------------------------------------------
# gray trials (hardened cluster vs the gray repertoire)


def gray_spec(seed=42, horizon=25.0, events=6):
    schedule = generate_schedule(
        RngRegistry(seed).stream("schedule"),
        n_hosts=4,
        horizon=horizon,
        n_events=events,
        gray=True,
    )
    return make_spec(seed, schedule, n_servers=4, n_vips=6, gray=True)


def test_gray_trial_passes_and_is_deterministic():
    spec = gray_spec(seed=404)
    first = run_trial(spec)
    second = run_trial(spec)
    assert first["verdict"] == "pass"
    assert first == second


def test_gray_trial_records_fault_log_and_degraded_spans():
    result = run_trial(gray_spec(seed=404))
    assert result["verdict"] == "pass"
    # The applied timeline rides along in the artifact...
    assert result["fault_log"]
    assert all(set(r) >= {"time", "kind", "target"} for r in result["fault_log"])
    # ...and gray exposure windows are stitched into spans.
    assert isinstance(result["degraded"], list)


def test_gray_trial_spans_cover_applied_gray_faults():
    from repro.check.schedule import GRAY_KINDS

    # Hunt a seed whose schedule actually fires a gray onset (guards
    # can skip events against dead hosts); the draw is deterministic.
    for seed in range(300, 320):
        result = run_trial(gray_spec(seed=seed))
        assert result["verdict"] == "pass"
        gray_kinds_applied = {
            r["kind"]
            for r in result["fault_log"]
            if r["kind"] in ("asym_partition", "burst_loss_on", "slow_host",
                             "clock_skew", "daemon_wedge")
        }
        if gray_kinds_applied:
            span_kinds = {span["kind"] for span in result["degraded"]}
            assert gray_kinds_applied <= span_kinds
            return
    raise AssertionError("no seed in range applied a gray fault: {}".format(GRAY_KINDS))


def test_non_gray_spec_unchanged_by_gray_support():
    """The historical spec shape (no gray key set) still runs and its
    dict form carries gray=False — replay artifacts stay compatible."""
    spec = small_spec(seed=42, events=[])
    assert spec["gray"] is False
    assert run_trial(spec)["verdict"] == "pass"

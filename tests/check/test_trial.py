"""Trial runner: verdicts are deterministic functions of the spec."""

import pytest

from repro.check.schedule import FaultEvent, FaultSchedule, generate_schedule
from repro.check.trial import make_spec, result_signature, run_trial
from repro.sim.rng import RngRegistry
from repro.stabilization import PROFILES


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


@pytest.mark.parametrize("gray, corrupt", [(False, False), (True, False), (False, True)])
def test_cluster_profile_and_trial_grace_come_from_the_repertoire_row(gray, corrupt, monkeypatch):
    from repro.check import schedule
    from repro.check.harness import CheckCluster

    # Swap the flags' row for another profile and an unused grace: the
    # trial must follow the row, not restate the flags.
    name = "corrupt" if corrupt else "gray" if gray else "standard"
    other = "standard" if corrupt else "corrupt"
    monkeypatch.setitem(
        schedule.REPERTOIRES, name, schedule.REPERTOIRES[other]._replace(grace=7.25)
    )
    seen = []
    watch = CheckCluster.watch_coverage

    def spy(cluster, grace):
        seen.append((grace,) + layers(cluster))
        return watch(cluster, grace)

    monkeypatch.setattr(CheckCluster, "watch_coverage", spy)
    spec = make_spec(3, FaultSchedule([], 5.0), n_servers=3, n_vips=4, gray=gray,
                     corrupt=corrupt)
    assert run_trial(spec)["verdict"] == "pass"
    row = PROFILES[schedule.REPERTOIRES[other].profile]
    supervisors = set() if row.supervisor is None else {row.supervisor}
    assert seen == [(7.25, {row}, {row.audit_interval}, {row.arp_reannounce_interval},
                     3 * len(supervisors), supervisors)]


def layers(cluster):
    """What every layer of a trial cluster runs, read off its daemons.

    The row each config carries (the notifier's included), the audit
    and re-announce timers the daemons armed (0.0 for none), and how
    many supervisors with which settings.
    """
    daemons = cluster.spreads + cluster.wacks
    rows = {d.config.profile for d in daemons} | {w.notifier.config.profile for w in cluster.wacks}
    return (
        rows,
        {getattr(d._stabilize_timer, "interval", 0.0) for d in daemons},
        {getattr(w._reannounce_timer, "interval", 0.0) for w in cluster.wacks},
        len(cluster.supervisors),
        {s.settings for s in cluster.supervisors},
    )


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


@pytest.mark.parametrize("gray, grace", [(False, 0.0), (True, 1.5)])
def test_violation_stops_the_run_where_it_is_known(gray, grace, monkeypatch):
    # The run ends at the first change once the failing interval opened
    # and held the gray grace, not a change later, so the trace tail
    # shows the violation and its last record is that change.
    from repro.check import build_trial_spec, campaign_params
    from repro.core.audit import CoverageEngine

    changes = []
    touch = CoverageEngine.touch
    monkeypatch.setattr(
        CoverageEngine, "touch", lambda engine: changes.append(engine.sim.now) or touch(engine)
    )
    params = campaign_params(
        base_seed=2004, trials=3, n_servers=5, n_vips=10, horizon=60.0,
        events_per_trial=12, fixture="broken-balance", gray=gray,
    )
    spec = build_trial_spec(params, int(gray))
    result = run_trial(spec)
    assert result["verdict"] == "violation"
    first = result["coverage"]["failures"][0]
    start = first["start"]
    known = min(t for t in changes if t > start + 1e-6 and t >= start + grace - 1e-6)
    assert result["sim_time"] == pytest.approx(known, abs=1e-6)  # results round to 1 µs
    last_record = float(result["trace_tail"][-1][1:11])
    assert abs(last_record - result["sim_time"]) <= 1e-4  # printed to 0.1 ms
    assert result["sim_time"] < spec["schedule"]["horizon"]


def test_a_duplicate_opened_by_the_last_change_ends_the_run_one_grace_later():
    # Gray broken-balance trial 1 opens its duplicate at the last coverage
    # change (34.4075 s). No later change audits that instant, so the
    # engine's own wake-up, one grace after it, ends the run there and
    # says so, instead of the run going on to the horizon.
    from repro.check import build_trial_spec, campaign_params

    params = campaign_params(
        base_seed=2004, trials=3, n_servers=5, n_vips=10, horizon=60.0,
        events_per_trial=12, fixture="broken-balance", gray=True,
    )
    result = run_trial(build_trial_spec(params, 1))
    assert result["verdict"] == "violation"
    first = result["coverage"]["failures"][0]
    assert (first["kind"], first["start"]) == ("duplicate", 34.407506)
    assert result["sim_time"] == pytest.approx(first["start"] + 1.5, abs=1e-6)
    assert "coverage   engine             failure_known" in result["trace_tail"][-1]


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


# ----------------------------------------------------------------------
# regressions: violations a sampled audit reported that were hand-offs


def _handoff_regression(seed, event, instant):
    spec = make_spec(
        seed, FaultSchedule([event], 60.0), n_servers=5, n_vips=10
    )
    result = run_trial(spec)
    assert result["verdict"] == "pass"
    coverage = result["coverage"]
    # The gap the old 0.25 s grid landed in is still recorded, exactly,
    # and the equal-application-point qualifier is what excused it.
    (handoff,) = [h for h in coverage["handoffs"] if h["start"] < instant < h["end"]]
    assert handoff["slot"] == "10.9.0.100"
    assert handoff["kind"] == "uncovered"
    assert handoff["excuse"] == "application_point"
    assert 0.0 < handoff["end"] - handoff["start"] < 0.001
    assert coverage["max_handoff_gap_s"] < 0.001
    assert coverage["failures"] == []


def test_leave_rejoin_balance_handoff_is_not_a_violation():
    """Standard trial 25 @ seed 2003, shrunk to one event.

    Host 4 leaves at 21.52 s and rejoins 8.98 s later. 1.5 s after the
    merged view reaches RUN the representative's BALANCE moves .100 to
    the returning host; s0 delivers it and releases .100 about 0.2 ms
    before host 4 delivers the same agreed message and acquires it. A
    sample at 33.0000 s fell inside that window and failed the trial.
    """
    _handoff_regression(
        2436840618970388281,
        FaultEvent("leave", 21.5226961067088, host=4, duration=8.97624231212371),
        33.0,
    )


def test_crash_recover_balance_handoff_is_not_a_violation():
    """Standard trial 21 @ seed 124, shrunk to one event.

    Host 2 crashes at 32.57 s and recovers 7.18 s later; the same
    donor-delivered, recipient-not-yet BALANCE window was sampled at
    42.75 s.
    """
    _handoff_regression(
        12313401675798080456,
        FaultEvent("crash", 32.570655010860996, host=2, duration=7.177348235132383),
        42.75,
    )


# ----------------------------------------------------------------------
# the violation ledger: recorded schedules that overlap faults of a kind


def _ledger_spec(seed, events, **overrides):
    return make_spec(seed, FaultSchedule(events, 60.0), n_servers=5, n_vips=10, **overrides)


def test_overlapping_partitions_pass_as_recorded():
    """Standard trial 18 @ seed 108, shrunk to three events.

    Host 2 flaps at 37.03 s, [1,4] is cut off at 43.40 s for 4.38 s and
    [1,2,3,4] at 47.59 s for 5.89 s. The first cut's heal once ended the
    second cut too, 5.7 s early; composed, s0 stays cut off from the rest
    until 54.47 s. Every interval is excused either way: hand-offs as
    ``application_point``, the detection-window lag as ``physically_stale``.
    """
    result = run_trial(_ledger_spec(17043521447127528333, [
        FaultEvent("nic_flap", 37.026697042401395, host=2, duration=8.556566811046038),
        FaultEvent("partition", 43.39503245053228, duration=4.376958673098211, split=[1, 4]),
        FaultEvent("partition", 47.58678430877879, duration=5.8870852823748425,
                   split=[1, 2, 3, 4]),
    ]))
    assert result["verdict"] == "pass"
    assert set(result["coverage"]["excused"]) == {"application_point", "physically_stale"}


#: Gray trial 19 @ seed 101, shrunk under composed faults to four events.
GRAY_101_19 = [
    FaultEvent("asym_partition", 9.10590222443258, duration=9.22597317993933, split=[0]),
    FaultEvent("asym_partition", 10.627761577098116, duration=4.543673967680348,
               split=[1, 2, 3]),
    FaultEvent("slow_host", 14.747507198367526, host=4, duration=3.010851865068042,
               param=2.183603168943548),
    FaultEvent("partition", 15.285438346293267, duration=3.9660083656849325,
               split=[0, 1, 2, 3]),
]


def test_slowed_singleton_cut_off_mid_conflict_outlasts_the_gray_grace():
    """Pinned open verdict: the slowdown stretches s4's repair past the grace.

    Times are the trace's; the schedule's are 1.0 s earlier (faults start
    once the cluster has settled). s4 (slowed x2.18) is a singleton view
    (8,'s4',0) holding all ten VIPs in ARP conflict with the majority
    when the partition cuts it off at 16.29 s. The conflict holddown it
    armed before the cut (0.5 s, stretched to 1.09 s) fires at 17.10 s
    and s4 yields every VIP to peers it can no longer reach. Its gather,
    begun before the cut, waits for s3's FORM on the stretched clock
    until 17.94 s, and the next singleton view re-acquires at 18.72 s:
    1.62 s uncovered against the 1.5 s gray grace. Without the slowdown
    the same chain fits the grace.
    """
    result = run_trial(_ledger_spec(6480230018176447884, GRAY_101_19, gray=True))
    assert result["verdict"] == "violation"
    assert result["violation_kinds"] == ["uncovered"]
    failures = result["coverage"]["failures"]
    assert {f["view"] for f in failures} == {"(8, 's4', 0)"}
    assert {(f["start"], f["end"]) for f in failures} == {(17.102002, 18.718954)}
    without_slowdown = [e for e in GRAY_101_19 if e.kind != "slow_host"]
    assert run_trial(_ledger_spec(6480230018176447884, without_slowdown, gray=True))[
        "verdict"] == "pass"

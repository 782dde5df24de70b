"""Unit tests for degraded-mode span extraction from trace records."""

from repro.obs.spans import degraded_spans, degraded_spans_as_dicts
from repro.sim.trace import TraceRecord


def rec(time, category, source, event, **details):
    return TraceRecord(time, category, source, event, details)


def test_slow_host_span_pairs_onset_with_heal():
    spans = degraded_spans(
        [
            rec(5.0, "fault", "injector", "slow_host", target="web1", param=2.5),
            rec(9.0, "fault", "injector", "unslow_host", target="web1"),
        ]
    )
    assert len(spans) == 1
    span = spans[0]
    assert span.kind == "slow_host"
    assert span.target == "web1"
    assert span.param == 2.5
    assert (span.start, span.end, span.duration) == (5.0, 9.0, 4.0)
    assert span.end_cause == "unslow_host"


def test_heal_only_closes_its_own_target():
    spans = degraded_spans(
        [
            rec(1.0, "fault", "injector", "slow_host", target="web1", param=2.0),
            rec(2.0, "fault", "injector", "slow_host", target="web2", param=3.0),
            rec(4.0, "fault", "injector", "unslow_host", target="web2"),
        ]
    )
    by_target = {span.target: span for span in spans}
    assert by_target["web2"].end == 4.0
    assert by_target["web1"].end is None
    assert by_target["web1"].duration is None


def test_asym_partition_heal_matches_on_lan_prefix():
    """Onset targets are "<lan>:<deaf hosts>"; the heal names the LAN."""
    spans = degraded_spans(
        [
            rec(3.0, "fault", "injector", "asym_partition", target="lan0:h0,h2"),
            rec(8.5, "fault", "injector", "asym_heal", target="lan0"),
        ]
    )
    assert len(spans) == 1
    assert spans[0].end == 8.5
    assert spans[0].end_cause == "asym_heal"


def test_crash_closes_host_scoped_spans():
    """A reboot resets the slowdown and kills the wedged daemon."""
    spans = degraded_spans(
        [
            rec(1.0, "fault", "injector", "slow_host", target="web1", param=2.0),
            rec(1.5, "fault", "injector", "daemon_wedge", target="spread@web1"),
            rec(2.0, "fault", "injector", "burst_loss_on", target="lan0", param={}),
            rec(6.0, "fault", "injector", "crash", target="web1"),
        ]
    )
    by_kind = {span.kind: span for span in spans}
    assert by_kind["slow_host"].end_cause == "crash"
    assert by_kind["daemon_wedge"].end_cause == "crash"
    # The LAN-scoped channel outlives any single host.
    assert by_kind["burst_loss_on"].end is None


def test_supervisor_restart_closes_wedge_span():
    spans = degraded_spans(
        [
            rec(2.0, "fault", "injector", "daemon_wedge", target="spread@web3"),
            rec(
                4.5,
                "supervisor",
                "supervisor@web3",
                "restart_spread",
                cause="wedged",
                old="web3",
                new="web3-s1",
            ),
        ]
    )
    assert len(spans) == 1
    assert spans[0].end == 4.5
    assert spans[0].end_cause == "supervisor_restart"


def test_spans_serialise_to_stable_dicts():
    dicts = degraded_spans_as_dicts(
        [
            rec(1.0, "fault", "injector", "clock_skew", target="web1", param=-3.0),
            rec(2.5, "fault", "injector", "clock_unskew", target="web1"),
        ]
    )
    assert dicts == [
        {
            "kind": "clock_skew",
            "target": "web1",
            "param": -3.0,
            "start": 1.0,
            "end": 2.5,
            "duration": 1.5,
            "end_cause": "clock_unskew",
        }
    ]


def test_unrelated_records_are_ignored():
    assert degraded_spans(
        [
            rec(1.0, "fault", "injector", "crash", target="web1"),
            rec(2.0, "membership", "spread@web2", "gather"),
            rec(3.0, "fault", "injector", "recover", target="web1"),
        ]
    ) == []

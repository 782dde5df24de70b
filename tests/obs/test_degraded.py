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


def test_asym_partition_span_closes_on_its_own_fault():
    """Onset targets are "<lan>:<deaf hosts>"; the heal names the LAN,
    so the undo is matched on the fault identity both records carry."""
    spans = degraded_spans(
        [
            rec(3.0, "fault", "injector", "asym_partition", target="lan0:h0,h2", fault=1),
            rec(8.5, "fault", "injector", "asym_heal", target="lan0", fault=1),
        ]
    )
    assert len(spans) == 1
    assert spans[0].end == 8.5
    assert spans[0].end_cause == "asym_heal"


def test_overlapping_asym_partitions_end_at_their_own_undo():
    from repro.net.fault import FaultInjector
    from repro.net.host import Host
    from repro.net.lan import Lan
    from repro.sim.simulation import Simulation

    sim = Simulation(seed=1)
    lan = Lan(sim, "lan0", "10.0.0.0/24")
    hosts = [Host(sim, "h{}".format(i)) for i in range(3)]
    for index, host in enumerate(hosts):
        host.add_nic(lan, "10.0.0.{}".format(1 + index))
    injector = FaultInjector(sim)
    first = injector.asym_partition(lan, [hosts[0]])
    sim.run(until=1.0)
    second = injector.asym_partition(lan, [hosts[1]])
    sim.run(until=2.0)
    first.undo()
    sim.run(until=4.0)
    second.undo()
    spans = degraded_spans(sim.trace.records)
    assert [(span.target, span.start, span.end) for span in spans] == [
        ("lan0:h0", 0.0, 2.0),
        ("lan0:h1", 1.0, 4.0),
    ]


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

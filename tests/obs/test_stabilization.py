"""Unit tests for time-to-stabilize span extraction from trace records."""

from repro.obs.spans import stabilization_spans, stabilization_spans_as_dicts
from repro.sim.trace import TraceRecord


def rec(time, category, source, event, **details):
    return TraceRecord(time, category, source, event, details)


def corrupt(time, kind, target, **param):
    return rec(time, "fault", "injector", kind, target=target, param=param)


def test_span_pairs_corruption_with_repair():
    spans = stabilization_spans(
        [
            corrupt(5.0, "corrupt_vip_table", "wack@s0", mutation="drop", slot="v1"),
            rec(5.4, "stabilize", "wack@s0", "repair", invariant="binding_lost", slot="v1"),
        ]
    )
    assert len(spans) == 1
    span = spans[0]
    assert span.kind == "corrupt_vip_table"
    assert span.target == "wack@s0"
    assert span.mutation == "drop"
    assert (span.start, span.end, span.duration) == (5.0, 5.4, 5.4 - 5.0)
    assert span.end_cause == "repair"
    assert span.invariant == "binding_lost"


def test_repair_only_closes_its_own_source():
    spans = stabilization_spans(
        [
            corrupt(1.0, "corrupt_sequence", "spread@s0", mutation="delivered_ahead"),
            corrupt(2.0, "corrupt_sequence", "spread@s1", mutation="assign_regress"),
            rec(2.5, "stabilize", "spread@s1", "repair", invariant="next_assign"),
        ]
    )
    by_target = {span.target: span for span in spans}
    assert by_target["spread@s1"].end == 2.5
    assert by_target["spread@s0"].end is None
    assert by_target["spread@s0"].duration is None


def test_noop_mutations_open_no_span():
    spans = stabilization_spans(
        [corrupt(1.0, "corrupt_vip_table", "wack@s0", mutation="noop")]
    )
    assert spans == []


def test_view_install_closes_view_scoped_spans():
    """A fresh install rewrites view, counters and orderer wholesale —
    a dropped member's own heartbeats trigger the gather before any
    audit tick fires."""
    spans = stabilization_spans(
        [
            corrupt(1.0, "corrupt_membership", "spread@s2", mutation="drop", member="s0"),
            corrupt(1.5, "corrupt_vip_table", "wack@s2", mutation="drop", slot="v1"),
            rec(3.0, "membership", "spread@s2", "install", view="(4, s0)"),
        ]
    )
    by_kind = {span.kind: span for span in spans}
    assert by_kind["corrupt_membership"].end == 3.0
    assert by_kind["corrupt_membership"].end_cause == "view_change"
    # vip-table corruption is not view-scoped: the install leaves it open.
    assert by_kind["corrupt_vip_table"].end is None


def test_crash_closes_spans_of_the_dead_host():
    spans = stabilization_spans(
        [
            corrupt(1.0, "corrupt_epoch", "spread@s1-r2", mutation="view_counter"),
            rec(2.0, "fault", "injector", "crash", target="s1"),
        ]
    )
    assert spans[0].end == 2.0
    assert spans[0].end_cause == "crash"


def test_supervisor_restart_closes_spans_of_replaced_daemon():
    spans = stabilization_spans(
        [
            corrupt(1.0, "corrupt_sequence", "spread@s1", mutation="delivered_ahead"),
            rec(4.0, "supervisor", "sup@s1", "restart_spread", old="s1", new="s1-s1"),
        ]
    )
    assert spans[0].end == 4.0
    assert spans[0].end_cause == "supervisor_restart"


def test_dict_form_is_json_ready_and_rounded():
    dicts = stabilization_spans_as_dicts(
        [
            corrupt(1.0, "corrupt_epoch", "spread@s0", mutation="view_counter"),
            rec(1.0000000001, "stabilize", "spread@s0", "repair", invariant="highest_counter"),
        ]
    )
    assert dicts == [
        {
            "kind": "corrupt_epoch",
            "target": "spread@s0",
            "mutation": "view_counter",
            "start": 1.0,
            "end": 1.0,
            "duration": 0.0,
            "end_cause": "repair",
            "invariant": "highest_counter",
        }
    ]

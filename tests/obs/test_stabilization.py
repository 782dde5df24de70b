"""Unit tests for time-to-stabilize span extraction from trace records."""

from repro.check import build_trial_spec, campaign_params, run_trial
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


def test_entering_run_closes_the_daemons_binding_corruptions():
    """RUN follows ``_apply_table``, which makes every binding match the
    agreed table: a dropped or duplicated binding is gone, whichever
    member the new table names. A poisoned client cache is not."""
    spans = stabilization_spans(
        [
            corrupt(1.0, "corrupt_vip_table", "wack@s2", mutation="drop", slot="v1"),
            corrupt(1.1, "corrupt_vip_table", "wack@s2", mutation="duplicate", slot="v2"),
            corrupt(1.2, "corrupt_vip_table", "wack@s2", mutation="poison_arp", slot="v3"),
            corrupt(1.3, "corrupt_vip_table", "wack@s1", mutation="drop", slot="v4"),
            rec(2.0, "wackamole", "wack@s2", "run", allocation={}),
        ]
    )
    assert [(span.mutation, span.end, span.end_cause) for span in spans] == [
        ("drop", 2.0, "reallocation"),
        ("duplicate", 2.0, "reallocation"),
        ("poison_arp", None, None),
        ("drop", None, None),
    ]


def test_a_drop_the_singleton_view_rebinds_closes_there():
    # The CI corruption campaign's trial 2: a drop on wack@s0 at 21.1 s,
    # inside an asymmetric partition. No audit repair answers it: s0's
    # singleton view re-binds the slot at 21.435 s, and RUN closes it.
    params = campaign_params(
        base_seed=20260806, trials=24, n_servers=4, n_vips=8,
        horizon=60, events_per_trial=10, corrupt=True,
    )
    result = run_trial(build_trial_spec(params, 2))
    assert result["verdict"] == "pass"
    (span,) = [span for span in result["stabilization"] if span["start"] == 21.109326104]
    assert (span["kind"], span["mutation"], span["target"]) == (
        "corrupt_vip_table", "drop", "wack@s0"
    )
    assert (span["end"], span["end_cause"]) == (21.435424402, "reallocation")


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


def test_a_binding_repair_closes_only_the_span_of_its_own_slot():
    # No audit answers a poisoned client cache, and a repair of one
    # slot leaves a drop on another slot open.
    spans = stabilization_spans(
        [
            corrupt(1.0, "corrupt_vip_table", "wack@s3", mutation="poison_arp", slot="v1"),
            corrupt(1.1, "corrupt_vip_table", "wack@s3", mutation="drop", slot="v2"),
            corrupt(1.2, "corrupt_vip_table", "wack@s3", mutation="duplicate", slot="v3"),
            rec(1.5, "stabilize", "wack@s3", "repair", invariant="binding_foreign", slot="v3"),
            rec(1.6, "stabilize", "wack@s3", "repair", invariant="binding_lost", slot="v1"),
        ]
    )
    assert [(span.mutation, span.end, span.invariant) for span in spans] == [
        ("poison_arp", None, None),
        ("drop", None, None),
        ("duplicate", 1.5, "binding_foreign"),
    ]


def test_a_poisoned_cache_stays_open_past_a_later_binding_repair():
    # The CI corruption campaign's trial 1: a poison_arp on wack@s3 at
    # 14.09 s used to close on that daemon's binding_foreign repair of
    # another slot at 35.6 s.
    params = campaign_params(
        base_seed=20260806, trials=24, n_servers=4, n_vips=8,
        horizon=60, events_per_trial=10, corrupt=True,
    )
    result = run_trial(build_trial_spec(params, 1))
    assert result["verdict"] == "pass"
    (span,) = [span for span in result["stabilization"] if span["mutation"] == "poison_arp"
               and span["target"] == "wack@s3" and 14.0 < span["start"] < 14.2]
    assert (span["end"], span["end_cause"]) == (None, None)

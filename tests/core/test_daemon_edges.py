"""Edge-case tests for the Wackamole daemon's message handling."""

from helpers import build_wack_cluster, settle_wack

from repro.core.messages import AllocMsg, BalanceMsg, MatureMsg, StateMsg
from repro.core.state import RUN


def stable_cluster(**kwargs):
    cluster = build_wack_cluster(3, **kwargs)
    assert settle_wack(cluster)
    return cluster


def test_stale_balance_msg_from_old_view_ignored():
    cluster = stable_cluster()
    wack = cluster.wacks[0]
    before = wack.table.as_dict()
    stale = BalanceMsg("wack@node1", ("old", "view", 0), {s: None for s in before})
    wack._on_balance_msg(stale)
    assert wack.table.as_dict() == before
    assert wack.machine.state == RUN


def test_balance_msg_with_unknown_slot_or_owner_is_sanitised():
    cluster = stable_cluster()
    wack = cluster.wacks[0]
    before = wack.table.as_dict()
    allocation = dict(before)
    allocation["not-a-slot"] = wack.member_name
    first_slot = next(iter(before))
    allocation[first_slot] = "wack@stranger"
    message = BalanceMsg(wack.member_name, wack.view.view_id, allocation)
    wack._on_balance_msg(message)
    # Unknown slot dropped, unknown owner not applied.
    assert "not-a-slot" not in wack.table.slots
    assert wack.table.owner(first_slot) == before[first_slot]


def test_alloc_msg_ignored_in_distributed_mode_outside_gather():
    cluster = stable_cluster()
    wack = cluster.wacks[0]
    before = wack.table.as_dict()
    flipped = {slot: wack.member_name for slot in before}
    wack._on_alloc_msg(AllocMsg(wack.member_name, wack.view.view_id, flipped))
    # Accepted (RUN-state application is legal) — table now all-mine...
    assert wack.table.owned_by(wack.member_name) == wack.table.slots
    # ...but a stale-view AllocMsg is not.
    wack._on_alloc_msg(AllocMsg(wack.member_name, ("x", "y", 0), before))
    assert wack.table.owned_by(wack.member_name) == wack.table.slots


def test_mature_msg_from_other_view_ignored():
    cluster = stable_cluster()
    wack = cluster.wacks[0]
    wack.mature = False
    wack._on_mature_msg(MatureMsg("wack@node1", ("other", "view", 9)))
    assert not wack.mature
    wack.mature = True


def test_state_msg_from_non_member_ignored():
    cluster = stable_cluster()
    wack = cluster.wacks[0]
    cluster.faults.crash_host(cluster.hosts[2])
    cluster.sim.run_for(
        cluster.config.fault_detection_timeout + cluster.config.discovery_timeout + 0.3
    )
    # Now in the new view's GATHER/RUN; inject a STATE from a stranger.
    stranger = StateMsg("wack@stranger", wack.view.view_id, (), (), True)
    before = dict(wack._state_msgs)
    wack._on_state_msg(stranger)
    assert "wack@stranger" not in wack._state_msgs or wack.machine.state == RUN
    assert settle_wack(cluster)


def test_state_msg_claim_for_unknown_slot_skipped():
    cluster = stable_cluster()
    wack = cluster.wacks[0]
    # Enter GATHER synchronously via a synthetic view change, then
    # replay a STATE message carrying a bogus claim.
    from repro.core.state import GATHER
    from repro.gcs.messages import GroupView

    synthetic = GroupView(
        wack.config.group_name, ("synthetic", "view", 1), wack.view.members, "network"
    )
    wack._on_group_view(synthetic)
    assert wack.machine.state == GATHER
    bogus = StateMsg("wack@node1", synthetic.view_id, ("no-such-slot",), (), True)
    wack._on_state_msg(bogus)
    assert "no-such-slot" not in wack.table.slots
    assert "wack@node1" in wack._state_msgs


def test_a_state_msg_sent_twice_by_one_member_does_not_end_gather():
    cluster = stable_cluster()
    wack = cluster.wacks[0]
    from repro.core.state import GATHER
    from repro.gcs.messages import GroupView

    synthetic = GroupView(
        wack.config.group_name, ("synthetic", "view", 2), wack.view.members, "network"
    )
    wack._on_group_view(synthetic)
    first, second, third = (
        StateMsg(member, synthetic.view_id, (), (), True) for member in synthetic.members
    )
    wack._on_state_msg(second)
    wack._on_state_msg(second)
    wack._on_state_msg(first)
    assert wack.machine.state == GATHER  # three messages, two senders of three
    wack._on_state_msg(third)
    assert wack.machine.state == RUN


def test_messages_have_informative_reprs():
    state = StateMsg("m", (1, "a", 0), ("v1",), (), True)
    assert "m" in repr(state) and "v1" in repr(state)
    balance = BalanceMsg("m", (1, "a", 0), {"v1": "m"})
    assert "1 slots" in repr(balance)
    alloc = AllocMsg("m", (1, "a", 0), {"v1": "m"})
    assert "1 slots" in repr(alloc)
    mature = MatureMsg("m", (1, "a", 0))
    assert "m" in repr(mature)


def test_reconnect_attempts_counted_when_daemon_down():
    cluster = build_wack_cluster(2)
    assert settle_wack(cluster)
    wack = cluster.wacks[0]
    cluster.spreads[0].crash()
    cluster.sim.run_for(wack.config.profile.reconnect_interval * 3.5)
    # No replacement daemon: the reconnect cycle keeps retrying.
    assert wack.reconnect_attempts >= 3
    assert wack.client is None


def test_wackamole_repr():
    cluster = stable_cluster()
    text = repr(cluster.wacks[0])
    assert "node0" in text
    assert "RUN" in text

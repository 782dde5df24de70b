"""Property tests for rendezvous (HRW) VIP placement.

The properties ISSUE 6 demands of the scale-tier strategy:

* determinism — the allocation is a pure function of the (unordered)
  membership and slot set;
* full coverage and single ownership — the shared invariants in
  ``tests/helpers.py``, identical to the linear strategy's contract;
* minimal disruption — a leave remaps exactly the leaver's slots and
  a join moves slots only *to* the joiner (≤ O(V/N) expected moves);
* the incremental :class:`RendezvousMap` always agrees with the
  direct :func:`rendezvous_allocation` computation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_allocation_ok

from repro.core.placement import (
    RendezvousMap,
    _ScoreLanes,
    hrw_score,
    rendezvous_allocation,
)

names = st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=12)
member_lists = st.lists(names, min_size=1, max_size=24, unique=True)
slot_lists = st.lists(names.map("vip-{}".format), min_size=1, max_size=64, unique=True)


@given(members=member_lists, slots=slot_lists)
def test_allocation_is_deterministic_and_order_independent(members, slots):
    base = rendezvous_allocation(members, slots)
    again = rendezvous_allocation(members, slots)
    reversed_members = rendezvous_allocation(list(reversed(members)), slots)
    assert base == again == reversed_members


@given(members=member_lists, slots=slot_lists)
def test_allocation_covers_every_slot_once(members, slots):
    allocation = rendezvous_allocation(members, slots)
    assert_allocation_ok(allocation, members, slots)


@given(members=member_lists, slots=slot_lists, data=st.data())
def test_leave_moves_only_the_leavers_slots(members, slots, data):
    allocation = rendezvous_allocation(members, slots)
    leaver = data.draw(st.sampled_from(members))
    survivors = [m for m in members if m != leaver]
    if not survivors:
        return
    after = rendezvous_allocation(survivors, slots)
    owned_by_leaver = {s for s, m in allocation.items() if m == leaver}
    moved = {s for s in slots if allocation[s] != after[s]}
    assert moved == owned_by_leaver
    for slot in moved:
        assert after[slot] in survivors


@given(members=member_lists, slots=slot_lists, joiner=names)
def test_join_moves_slots_only_to_the_joiner(members, slots, joiner):
    if joiner in members:
        return
    before = rendezvous_allocation(members, slots)
    after = rendezvous_allocation(members + [joiner], slots)
    moved = {s for s in slots if before[s] != after[s]}
    assert all(after[s] == joiner for s in moved)


@given(
    slots=slot_lists,
    memberships=st.lists(member_lists, min_size=1, max_size=6),
)
@settings(max_examples=50)
def test_rendezvous_map_agrees_with_direct_computation(slots, memberships):
    # Walking a sequence of memberships through one map exercises the
    # incremental join/leave delta paths against cached bases.
    placement = RendezvousMap(slots)
    for members in memberships:
        assert placement.allocation_for(members) == rendezvous_allocation(members, slots)


@given(slots=slot_lists, data=st.data())
@settings(max_examples=50)
def test_rendezvous_map_full_leave_and_join_agree_with_direct(slots, data):
    # Memberships big enough that a few leavers or joiners take the
    # delta paths (under a quarter of the membership changes).
    members = ["m{:02d}".format(i) for i in range(24)]
    placement = RendezvousMap(slots)
    assert placement.allocation_for(members) == rendezvous_allocation(members, slots)
    leavers = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=4, unique=True))
    survivors = [m for m in members if m not in leavers]
    assert placement.allocation_for(survivors) == rendezvous_allocation(survivors, slots)
    joined = survivors + leavers[:2] + ["m99"]
    assert placement.allocation_for(joined) == rendezvous_allocation(joined, slots)


MAX64 = 2**64 - 1
keys64 = st.one_of(st.sampled_from([0, MAX64]), st.integers(0, MAX64))


def scalar_best(slot_key, member_keys):
    """The reference: scalar scores, ties toward the greater name."""
    return max((hrw_score(slot_key, key), name) for name, key in member_keys)


@pytest.mark.parametrize("lanes", [1, 2, 7, 33, 1024])
@given(slot_key=keys64, seed=st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_score_lanes_equal_scalar_scores_and_tie_rule(lanes, slot_key, seed):
    rng = random.Random(seed)  # 1 024 drawn keys would swamp Hypothesis
    keys = [
        rng.choice((0, MAX64)) if rng.random() < 0.05 else rng.getrandbits(64)
        for _ in range(lanes)
    ]
    member_keys = [("m{:04d}".format(i), key) for i, key in enumerate(keys)]
    if lanes > 1:
        # A forced exact tie at the top: a second name takes the
        # winner's key (equal member terms, so equal scores).
        _score, winner = scalar_best(slot_key, member_keys)
        twin = rng.choice([i for i in range(lanes) if member_keys[i][0] != winner])
        member_keys[twin] = (member_keys[twin][0], dict(member_keys)[winner])
    rng.shuffle(member_keys)
    assert _ScoreLanes(member_keys).best(slot_key) == scalar_best(slot_key, member_keys)


def test_score_lanes_all_equal_terms_go_to_the_greatest_name():
    member_keys = [(name, MAX64) for name in ("b", "d", "a", "c")]
    for slot_key in (0, 1, MAX64):
        assert _ScoreLanes(member_keys).best(slot_key) == (hrw_score(slot_key, MAX64), "d")


@given(members=member_lists, slots=slot_lists)
def test_rendezvous_map_owned_index_partitions_the_slots(members, slots):
    placement = RendezvousMap(slots)
    index = placement.owned_index_for(members)
    rebuilt = {}
    for member, owned in index.items():
        assert member in members
        for slot in owned:
            assert slot not in rebuilt
            rebuilt[slot] = member
    assert rebuilt == placement.allocation_for(members)
    assert placement.owned_by(members, members[0]) == index.get(members[0], ())

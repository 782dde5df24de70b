"""Property tests for the paper's linear placement procedures.

``reallocate_ips`` hole-filling and the RUN-state
``compute_balanced_allocation`` pass are held to the coverage and
single-owner invariants of the shared helpers in ``tests/helpers.py``,
the ones the scale tier's rendezvous placement meets too.
"""

from hypothesis import given
from hypothesis import strategies as st

from helpers import assert_allocation_ok

from repro.core.balance import compute_balanced_allocation
from repro.core.reallocate import reallocate_ips
from repro.core.table import AllocationTable

names = st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=12)
member_lists = st.lists(names, min_size=1, max_size=16, unique=True)
slot_lists = st.lists(names.map("vip-{}".format), min_size=1, max_size=48, unique=True)


def random_current(members, slots, data):
    """A partial/stale {slot: owner} map as GATHER would accumulate it."""
    current = {}
    stale = ["ghost-1", "ghost-2"]
    for slot in slots:
        choice = data.draw(
            st.sampled_from(["hole", "member", "stale"]), label="state {}".format(slot)
        )
        if choice == "member":
            current[slot] = data.draw(
                st.sampled_from(members), label="owner {}".format(slot)
            )
        elif choice == "stale":
            current[slot] = stale[len(current) % 2]
    return current


@given(members=member_lists, slots=slot_lists, data=st.data())
def test_balanced_allocation_invariants(members, slots, data):
    current = random_current(members, slots, data)
    allocation = compute_balanced_allocation(members, slots, current)
    assert_allocation_ok(allocation, members, slots)
    # Determinism: same inputs, same answer.
    assert allocation == compute_balanced_allocation(members, slots, current)


@given(members=member_lists, slots=slot_lists, data=st.data())
def test_balanced_allocation_levels_load(members, slots, data):
    current = random_current(members, slots, data)
    allocation = compute_balanced_allocation(members, slots, current)
    counts = {member: 0 for member in members}
    for owner in allocation.values():
        counts[owner] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


@given(members=member_lists, slots=slot_lists, data=st.data())
def test_reallocate_covers_holes_without_disturbing_owners(members, slots, data):
    table = AllocationTable(slots, members)
    pre_owned = {}
    for slot in slots:
        if data.draw(st.booleans(), label="preassign {}".format(slot)):
            owner = data.draw(st.sampled_from(members), label="owner {}".format(slot))
            table.set_owner(slot, owner)
            pre_owned[slot] = owner
    grants = reallocate_ips(table)
    assert set(grants) == set(slots) - set(pre_owned)
    current = table.as_dict()
    for slot, owner in pre_owned.items():
        assert current[slot] == owner
    assert_allocation_ok(current, members, slots)


@given(members=member_lists, slots=slot_lists, data=st.data())
def test_reallocate_honours_preferences(members, slots, data):
    preferring = data.draw(st.sampled_from(members))
    pinned = data.draw(st.sampled_from(slots))
    table = AllocationTable(slots, members)
    grants = reallocate_ips(table, preferences={preferring: (pinned,)})
    assert grants[pinned] == preferring
    assert_allocation_ok(table.as_dict(), members, slots)

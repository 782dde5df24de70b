"""Unit tests for the VIP allocation table."""

import pytest

from repro.core.table import AllocationTable


@pytest.fixture
def table():
    return AllocationTable(["v1", "v2", "v3"], members=["a", "b"])


def test_starts_with_all_holes(table):
    assert table.holes() == ("v1", "v2", "v3")
    assert not table.is_complete()


def test_set_and_read_owner(table):
    table.set_owner("v1", "a")
    assert table.owner("v1") == "a"
    assert table.holes() == ("v2", "v3")


def test_release_clears_owner(table):
    table.set_owner("v1", "a")
    table.release("v1")
    assert table.owner("v1") is None


def test_owned_by_lists_in_slot_order(table):
    table.set_owner("v3", "a")
    table.set_owner("v1", "a")
    table.set_owner("v2", "b")
    assert table.owned_by("a") == ("v1", "v3")


def test_counts_cover_all_members(table):
    table.set_owner("v1", "a")
    assert table.counts() == {"a": 1, "b": 0}


def test_position_reflects_membership_order(table):
    assert table.position("a") == 0
    assert table.position("b") == 1


def test_unknown_slot_rejected(table):
    with pytest.raises(KeyError):
        table.set_owner("nope", "a")
    with pytest.raises(KeyError):
        table.owner("nope")


def test_unknown_owner_rejected(table):
    with pytest.raises(ValueError):
        table.set_owner("v1", "stranger")


def test_is_complete(table):
    for slot in table.slots:
        table.set_owner(slot, "a")
    assert table.is_complete()


def test_copy_is_independent(table):
    table.set_owner("v1", "a")
    clone = table.copy()
    clone.set_owner("v1", "b")
    assert table.owner("v1") == "a"
    assert clone.members == table.members


def test_as_dict_snapshot(table):
    table.set_owner("v1", "a")
    snapshot = table.as_dict()
    snapshot["v1"] = "b"
    assert table.owner("v1") == "a"


def test_equality(table):
    other = AllocationTable(["v1", "v2", "v3"], members=["a", "b"])
    assert table == other
    other.set_owner("v1", "a")
    assert table != other


def test_contains_answers_for_known_and_unknown_slots(table):
    assert "v1" in table and "v3" in table
    assert "nope" not in table and None not in table


def test_position_of_a_non_member_raises_value_error(table):
    with pytest.raises(ValueError):
        table.position("stranger")
    with pytest.raises(ValueError):
        table.copy().position("stranger")


def test_unknown_slot_or_owner_rejected_on_a_copy(table):
    clone = table.copy()
    with pytest.raises(KeyError):
        clone.set_owner("nope", "a")
    with pytest.raises(ValueError):
        clone.set_owner("v1", "stranger")


def test_adopt_takes_only_known_slots_and_members(table):
    table.set_owner("v2", "a")
    table.adopt({"v1": "b", "v2": "stranger", "v3": None, "nope": "a"})
    assert table.as_dict() == {"v1": "b", "v2": "a", "v3": None}

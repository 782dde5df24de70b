"""The virtual IP allocation table (``current_table`` in the paper).

Maps each VIP group (slot) to the member covering it, together with
the uniquely ordered membership list of the view the table belongs to.
During GATHER the table accumulates claims from STATE messages; in RUN
it is conflict-free and complete (Properties 1 and 2).
"""


class AllocationTable:
    """Slot -> owner mapping for one membership."""

    def __init__(self, slot_ids, members=()):
        self._owners = {slot: None for slot in slot_ids}
        self.members = tuple(members)
        self._positions = {member: index for index, member in enumerate(self.members)}

    def __contains__(self, slot):
        return slot in self._owners

    @property
    def slots(self):
        """All slot ids, in configuration order."""
        return tuple(self._owners)

    def owner(self, slot):
        """Current owner of ``slot`` (None while uncovered)."""
        return self._owners[slot]

    def set_owner(self, slot, owner):
        """Assign ``slot`` to ``owner`` (or None to clear)."""
        if slot not in self._owners:
            raise KeyError("unknown slot {!r}".format(slot))
        if owner is not None and owner not in self._positions:
            raise ValueError("owner {!r} not in membership".format(owner))
        self._owners[slot] = owner

    def adopt(self, allocation):
        """Take the entries of ``allocation`` naming a known slot and a member or None."""
        for slot, owner in allocation.items():
            if slot in self._owners and (owner is None or owner in self._positions):
                self._owners[slot] = owner

    def release(self, slot):
        """Clear the owner of ``slot``."""
        self._owners[slot] = None

    def holes(self):
        """Slots currently covered by nobody, in slot order."""
        return tuple(slot for slot, owner in self._owners.items() if owner is None)

    def owned_by(self, member):
        """Slots covered by ``member``, in slot order."""
        return tuple(slot for slot, owner in self._owners.items() if owner == member)

    def counts(self):
        """{member: number of covered slots} over the full membership."""
        counts = {member: 0 for member in self.members}
        for owner in self._owners.values():
            if owner is not None:
                counts[owner] += 1
        return counts

    def position(self, member):
        """Index of ``member`` in the uniquely ordered membership list."""
        if member not in self._positions:
            raise ValueError("{!r} not in membership".format(member))
        return self._positions[member]

    def as_dict(self):
        """Plain dict copy of the allocation."""
        return dict(self._owners)

    def is_complete(self):
        """True when every slot has an owner."""
        return all(owner is not None for owner in self._owners.values())

    def copy(self):
        """Independent copy (same membership)."""
        table = AllocationTable(self._owners, self.members)
        table._owners = dict(self._owners)
        return table

    def __eq__(self, other):
        return (
            isinstance(other, AllocationTable)
            and self._owners == other._owners
            and self.members == other.members
        )

    def __repr__(self):
        return "AllocationTable({})".format(
            {slot: owner for slot, owner in self._owners.items()}
        )

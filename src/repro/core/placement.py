"""Rendezvous (HRW) VIP placement — the scale-tier placement strategy.

The paper's BALANCE pass (:mod:`repro.core.balance`) levels load by
*moving* slots between members, which recomputes the world on every
membership change: O(N·V) work and, worse, O(V) gratuitous ARP cycles
when the membership merely shrinks by one. Rendezvous hashing (highest
random weight, Thaler & Ravishankar) gives the minimal-disruption
property instead: every slot independently belongs to the member with
the highest deterministic ``score(slot, member)``, so

* removing a member remaps exactly the slots that member owned
  (expected V/N of them) and nothing else;
* adding a member steals only the slots it now scores highest on
  (again expected V/(N+1)), each moving *to* the new member.

Scores are pure functions of the (slot, member) name pair — no state,
no coordination — so every daemon computes the identical allocation
from the same membership, exactly the deterministic-procedure
obligation of the paper's Lemma 2.

The scale tier places VIPs this way, per cell
(:class:`repro.apps.scalecluster.ScaleClusterScenario`); the faithful
daemon keeps the paper's Reallocate_IPs and BALANCE
(:mod:`repro.core.reallocate`, :mod:`repro.core.balance`).

For large clusters :class:`RendezvousMap` maintains an allocation
incrementally: a single join or leave costs O(V) score comparisons
instead of the O(V·N) full recomputation.
"""

import hashlib
import struct
from operator import itemgetter

_MASK64 = (1 << 64) - 1
_PHI64 = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _key64(name):
    """Stable 64-bit digest of a name (independent of PYTHONHASHSEED)."""
    digest = hashlib.blake2b(str(name).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _mix64(x):
    """SplitMix64 finalizer: full-avalanche 64-bit mix."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & _MASK64
    x ^= x >> 31
    return x


def hrw_score(slot_key, member_key):
    """The 64-bit rendezvous score for a (slot, member) key pair.

    Keys are :func:`_key64` digests; combining digests with a cheap
    integer mixer keeps the V·N score matrix out of ``hashlib`` — only
    V + N real hashes are ever computed.
    """
    return _mix64(slot_key ^ ((member_key + _PHI64) & _MASK64))


def rendezvous_allocation(members, slots):
    """The full {slot: member} HRW allocation (pure function)."""
    members = list(members)
    if not members:
        return {slot: None for slot in slots}
    member_keys = [(m, _key64(m)) for m in members]
    allocation = {}
    for slot in slots:
        slot_key = _key64(slot)
        best = max(member_keys, key=lambda mk: (hrw_score(slot_key, mk[1]), mk[0]))
        allocation[slot] = best[0]
    return allocation


class _ScoreLanes:
    """:func:`hrw_score` of one slot key against N member keys at once.

    The member terms ``(key + φ) mod 2⁶⁴`` sit in one Python int, one
    128-bit lane each: 64 value bits under 64 zero bits of headroom.
    :func:`_mix64` then runs on all lanes in one pass of big-int
    operations. A lane's product with a 64-bit constant is below 2¹²⁸,
    so it cannot carry into the next lane, and a right shift leaks only
    into the neighbour's headroom; masking every step back to the low
    halves therefore leaves in each lane exactly the scalar result.
    """

    def __init__(self, member_keys):
        # Greatest name in lane 0: the *first* lane holding the maximum
        # is then the winner of an exact tie, which is the tie rule of
        # ``max(..., key=(score, name))`` in :func:`rendezvous_allocation`.
        ranked = sorted(member_keys, key=itemgetter(0), reverse=True)
        self._members = [member for member, _key in ranked]
        lanes = len(ranked)
        # Little-endian, 16 bytes a lane: the value, then the headroom.
        self._layout = struct.Struct("<" + "Q8x" * lanes)
        self._ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * lanes, "little")
        self._low = self._ones * _MASK64
        self._terms = int.from_bytes(
            b"".join(
                ((key + _PHI64) & _MASK64).to_bytes(16, "little") for _member, key in ranked
            ),
            "little",
        )

    def best(self, slot_key):
        """``(score, member)`` of the member scoring highest on ``slot_key``."""
        low = self._low
        x = self._terms ^ (slot_key * self._ones)
        x ^= (x >> 30) & low
        x = (x * _MIX_A) & low
        x ^= (x >> 27) & low
        x = (x * _MIX_B) & low
        x ^= (x >> 31) & low
        layout = self._layout
        scores = layout.unpack(x.to_bytes(layout.size, "little"))
        score = max(scores)
        return score, self._members[scores.index(score)]


class RendezvousMap:
    """Incrementally maintained HRW allocation over a fixed slot set.

    ``allocation_for(members)`` returns the {slot: member} allocation
    for any membership; consecutive calls are answered from a small
    memo, and a new membership is computed as a delta from the closest
    cached one: a leave rescores only the departed members' slots, a
    join compares every slot against the joiners only — O(V) instead
    of O(V·N). The result is always identical to
    :func:`rendezvous_allocation` (a property the test suite asserts).

    The map is placement *mechanism* only — it never observes who is
    alive; callers feed it memberships from their own view protocol.
    """

    _MEMO_LIMIT = 8

    def __init__(self, slots):
        self.slots = tuple(slots)
        self._slot_keys = {slot: _key64(slot) for slot in self.slots}
        self._member_keys = {}
        # members tuple -> (allocation dict, best-score dict); insertion
        # ordered, oldest evicted first.
        self._memo = {}
        # members tuple -> {member: sorted slot tuple} (same eviction).
        self._index_memo = {}

    def _member_key(self, member):
        key = self._member_keys.get(member)
        if key is None:
            key = _key64(member)
            self._member_keys[member] = key
        return key

    def allocation_for(self, members):
        """The HRW allocation for ``members`` (unweighted), as a dict copy."""
        canonical = tuple(sorted(members))
        cached = self._memo.get(canonical)
        if cached is not None:
            return dict(cached[0])
        allocation, best = self._compute(canonical)
        if len(self._memo) >= self._MEMO_LIMIT:
            oldest = next(iter(self._memo))
            del self._memo[oldest]
        self._memo[canonical] = (allocation, best)
        return dict(allocation)

    def owned_by(self, members, member):
        """Sorted tuple of slots ``member`` owns under ``members``."""
        return self.owned_index_for(members).get(member, ())

    def owned_index_for(self, members):
        """{member: sorted slot tuple} for ``members``, memoized.

        Shared by every node applying the same view, so a cluster-wide
        view change inverts the allocation once, not once per node.
        """
        canonical = tuple(sorted(members))
        cached = self._index_memo.get(canonical)
        if cached is not None:
            return cached
        allocation = self.allocation_for(canonical)
        index = {}
        for slot in self.slots:
            owner = allocation[slot]
            if owner is not None:
                index.setdefault(owner, []).append(slot)
        index = {member: tuple(sorted(slots)) for member, slots in index.items()}
        if len(self._index_memo) >= self._MEMO_LIMIT:
            oldest = next(iter(self._index_memo))
            del self._index_memo[oldest]
        self._index_memo[canonical] = index
        return index

    # ------------------------------------------------------------------

    def _compute(self, canonical):
        base = self._closest_base(canonical)
        if base is None:
            return self._full(canonical)
        base_members, (base_alloc, base_best) = base
        removed = sorted(set(base_members) - set(canonical))
        added = sorted(set(canonical) - set(base_members))
        # Delta cost: every slot is checked against each joiner, and
        # slots orphaned by leavers are rescored over the survivors.
        # A wildly different membership is cheaper to recompute whole.
        if (len(added) + len(removed)) * 4 > len(canonical):
            return self._full(canonical)
        allocation = dict(base_alloc)
        best = dict(base_best)
        if removed:
            gone = set(removed)
            orphaned = [slot for slot in self.slots if allocation[slot] in gone]
            self._rescore(orphaned, canonical, allocation, best)
        for member in added:
            member_key = self._member_key(member)
            slot_keys = self._slot_keys
            for slot in self.slots:
                score = hrw_score(slot_keys[slot], member_key)
                contender = (score, member)
                if contender > best[slot]:
                    best[slot] = contender
                    allocation[slot] = member
        return allocation, best

    def _closest_base(self, canonical):
        """The cached membership sharing the most members, or None."""
        target = set(canonical)
        winner = None
        overlap = -1
        for cached_members in self._memo:
            shared = len(target.intersection(cached_members))
            if shared > overlap:
                overlap = shared
                winner = cached_members
        if winner is None:
            return None
        return winner, self._memo[winner]

    def _full(self, canonical):
        allocation = {}
        best = {}
        self._rescore(self.slots, canonical, allocation, best)
        return allocation, best

    def _rescore(self, slots, canonical, allocation, best):
        """Give each of ``slots`` its HRW winner over ``canonical``."""
        if not canonical:
            for slot in slots:
                allocation[slot], best[slot] = None, (-1, "")
            return
        lanes = _ScoreLanes([(m, self._member_key(m)) for m in canonical])
        slot_keys = self._slot_keys
        for slot in slots:
            best[slot] = winner = lanes.best(slot_keys[slot])
            allocation[slot] = winner[1]

"""Wackamole configuration: virtual addresses and behaviour knobs.

Values the daemon cannot run with (a balance period that is not
positive, a negative delay, a preference for an unknown group)
are rejected when the config is built, not at first use.
"""

import functools

from repro.core import audit
from repro.net.addresses import IPAddress
from repro.stabilization import lookup


class VipGroup:
    """An indivisible set of virtual addresses moved as one unit.

    Web clusters use single-address groups; the virtual-router
    application (§5.2) groups one address per network so a physical
    router always holds the complete set or none of it.
    """

    __slots__ = ("group_id", "addresses")

    def __init__(self, group_id, addresses):
        self.group_id = str(group_id)
        self.addresses = tuple(IPAddress(a) for a in addresses)
        if not self.addresses:
            raise ValueError("VIP group {!r} has no addresses".format(group_id))

    def __eq__(self, other):
        return (
            isinstance(other, VipGroup)
            and self.group_id == other.group_id
            and self.addresses == other.addresses
        )

    def __hash__(self):
        return hash(("VipGroup", self.group_id, self.addresses))

    def __repr__(self):
        return "VipGroup({}, {})".format(
            self.group_id, [str(a) for a in self.addresses]
        )


class WackamoleConfig:
    """Per-daemon configuration.

    Every entry corresponds to a behaviour the paper describes:

    * ``vip_groups`` — the virtual address set I (§3.1), possibly
      grouped into indivisible router sets (§5.2).
    * ``balance_enabled`` / ``balance_timeout`` — the RUN-state
      re-balancing procedure and its trigger (§3.4, Algorithm 3).
    * ``maturity_timeout`` — graceful bootstrap (§3.4).
    * ``prefer`` — explicit per-server preferences "specified by each
      server at startup and passed along through state messages".
    * ``notify_ips`` — hosts whose ARP caches must be repointed after
      an acquisition (the router in Fig. 3); empty means broadcast.
    * ``arp_share_interval`` — §5.2's periodic ARP-cache exchange for
      targeted notification (0 disables), with ``arp_share_ttl`` as the
      garbage-collection horizon the paper leaves as future work.
    * ``eager_conflict_resolution`` — drop overlapping VIPs as soon as
      a conflict is noticed (§3.4) instead of at the end of GATHER;
      switchable for the ablation bench.
    * ``representative_allocation`` — §4.2's alternative decision
      style: instead of every daemon running the deterministic
      Reallocate_IPs independently, the representative computes the
      allocation and imposes it on the members. Must be set uniformly
      across the cluster.
    * ``weight`` — this server's relative capacity for §3.4's
      "load-based reallocation": allocation and balancing target a
      share of the address pool proportional to the weight (travels in
      STATE messages like the preferences).
    * ``profile`` — the hardening row this daemon runs: a name of
      :data:`repro.stabilization.PROFILES` (``paper``, the default, is
      the daemon above with no hardening) or a row itself. The
      notifier, the re-announce, conflict, reconnect and audit timers
      read their values off it (``docs/FAULTS.md``).
    """

    def __init__(
        self,
        vip_groups,
        group_name="wackamole",
        balance_enabled=True,
        balance_timeout=10.0,
        maturity_timeout=5.0,
        prefer=(),
        notify_ips=(),
        arp_share_interval=0.0,
        arp_share_ttl=120.0,
        eager_conflict_resolution=True,
        representative_allocation=False,
        weight=1.0,
        profile="paper",
    ):
        self.vip_groups = tuple(vip_groups)
        if len({g.group_id for g in self.vip_groups}) != len(self.vip_groups):
            raise ValueError("duplicate VIP group ids")
        self.group_name = group_name
        self.balance_enabled = bool(balance_enabled)
        self.balance_timeout = float(balance_timeout)
        self.maturity_timeout = float(maturity_timeout)
        self.prefer = tuple(prefer)
        self.notify_ips = tuple(IPAddress(ip) for ip in notify_ips)
        self.arp_share_interval = float(arp_share_interval)
        self.arp_share_ttl = float(arp_share_ttl)
        self.eager_conflict_resolution = bool(eager_conflict_resolution)
        self.representative_allocation = bool(representative_allocation)
        if weight <= 0:
            raise ValueError("weight must be positive, got {}".format(weight))
        self.weight = float(weight)
        # A zero period re-arms at the same instant for ever (the run
        # livelocks); a negative delay would fail only at first use.
        for name, zero_ok in (
            ("balance_timeout", False),
            ("maturity_timeout", True),
        ):
            value = getattr(self, name)
            if not (value >= 0 if zero_ok else value > 0):
                raise ValueError(
                    "{} must be {}, got {}".format(name, ">= 0" if zero_ok else "positive", value)
                )
        self.profile = lookup(profile)
        unknown = set(self.prefer) - {g.group_id for g in self.vip_groups}
        if unknown:
            raise ValueError("preferences for unknown VIP groups: {}".format(sorted(unknown)))

    @classmethod
    def for_vips(cls, addresses, **kwargs):
        """Build a config with one single-address group per VIP."""
        groups = [VipGroup(str(IPAddress(a)), [a]) for a in addresses]
        return cls(groups, **kwargs)

    def slot_ids(self):
        """Ordered ids of all VIP groups (the allocation slots)."""
        return tuple(group.group_id for group in self.vip_groups)

    @functools.cached_property
    def slot_table(self):
        """The pool as the Property-1 judge reads it."""
        return audit.slot_table((g.group_id, g.addresses) for g in self.vip_groups)

    def group(self, group_id):
        """The VipGroup with the given id."""
        for group in self.vip_groups:
            if group.group_id == group_id:
                return group
        raise KeyError(group_id)

    def copy_for(self, **overrides):
        """A copy with selected fields replaced (used by scenario builders)."""
        # Every constructor parameter is stored under its own name, so
        # the parameter list *is* the field list.
        code = WackamoleConfig.__init__.__code__
        fields = {
            name: getattr(self, name)
            for name in code.co_varnames[1 : code.co_argcount]
        }
        fields.update(overrides)
        return WackamoleConfig(**fields)

"""Wackamole configuration: virtual addresses and behaviour knobs.

Values the daemon cannot run with (a balance or reconnect period that
is not positive, a negative delay, a preference for an unknown group)
are rejected when the config is built, not at first use.
"""

import functools

from repro.core import audit
from repro.net.addresses import IPAddress
from repro.stabilization import STABILIZING, StabilizationConfig, profile_overrides

#: Wackamole hardening of the ``hardened`` profile (docs/FAULTS.md): ARP
#: retries + periodic re-announcement, conflict re-ARP and wire-level
#: conflict resolution, and a fast reconnect cycle for supervised
#: daemon restarts.
_HARDENED = {
    "arp_announce_retries": 2,
    "arp_announce_backoff": 0.3,
    "arp_reannounce_interval": 2.0,
    "conflict_reannounce": True,
    "arp_conflict_resolution": True,
    "arp_conflict_holddown": 0.5,
    "reconnect_interval": 0.5,
}

_PROFILES = {
    "paper": {},
    "hardened": _HARDENED,
    "stabilizing": dict(_HARDENED, stabilization=STABILIZING),
}

#: :class:`repro.core.supervisor.DaemonSupervisor` settings per profile;
#: None means the profile runs unsupervised, as the paper's servers do.
_SUPERVISED = {
    "check_interval": 0.5,
    "stall_checks": 3,
    "restart_backoff": 0.5,
    "backoff_cap": 4.0,
    "stable_after": 5.0,
}
SUPERVISOR_PROFILES = {"paper": None, "hardened": _SUPERVISED, "stabilizing": _SUPERVISED}


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
    * ``reconnect_interval`` — the retry cycle after losing the local
      GCS daemon (§4.2).
    * ``representative_allocation`` — §4.2's alternative decision
      style: instead of every daemon running the deterministic
      Reallocate_IPs independently, the representative computes the
      allocation and imposes it on the members. Must be set uniformly
      across the cluster.
    * ``weight`` — this server's relative capacity for §3.4's
      "load-based reallocation": allocation and balancing target a
      share of the address pool proportional to the weight (travels in
      STATE messages like the preferences).

    Gray-failure hardening knobs (all default off / historical
    behaviour; see ``docs/FAULTS.md``):

    * ``arp_announce_retries`` / ``arp_announce_backoff`` — re-send
      each acquisition's spoofed ARP announcement up to N extra times
      with exponential backoff, so a burst-lossy segment still gets the
      caches repointed. 0 retries reproduces the single-shot paper
      behaviour.
    * ``arp_reannounce_interval`` — periodic gratuitous re-announcement
      of every held VIP (0 disables); repairs caches poisoned while a
      partition was asymmetric.
    * ``conflict_reannounce`` — when this daemon *wins* a duplicate-VIP
      conflict during GATHER, re-announce the kept address even though
      the interface was already bound (the loser's earlier announces
      may have repointed client caches the wrong way).
    * ``arp_conflict_resolution`` / ``arp_conflict_holddown`` — act on
      wire-level duplicate-claim detection (a foreign ARP claim for a
      held VIP): after the holddown, if the slot is still held and the
      conflict persists, the daemon with the losing (higher) member id
      releases. Detection itself is always on.
    * ``stabilization`` — a :class:`repro.stabilization.StabilizationConfig`
      gating the periodic local invariant audit: in RUN, the agreed
      allocation table and the actual interface bindings must agree;
      a lost binding is re-acquired (and re-announced), a binding the
      table assigns elsewhere is released. The default (interval 0)
      disables the audit — historical behaviour.
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
        reconnect_interval=2.0,
        representative_allocation=False,
        weight=1.0,
        arp_announce_retries=0,
        arp_announce_backoff=0.5,
        arp_reannounce_interval=0.0,
        conflict_reannounce=False,
        arp_conflict_resolution=False,
        arp_conflict_holddown=1.0,
        stabilization=None,
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
        self.reconnect_interval = float(reconnect_interval)
        self.representative_allocation = bool(representative_allocation)
        if weight <= 0:
            raise ValueError("weight must be positive, got {}".format(weight))
        self.weight = float(weight)
        if int(arp_announce_retries) < 0:
            raise ValueError(
                "arp_announce_retries must be >= 0, got {}".format(arp_announce_retries)
            )
        if float(arp_announce_backoff) <= 0:
            raise ValueError(
                "arp_announce_backoff must be positive, got {}".format(arp_announce_backoff)
            )
        self.arp_announce_retries = int(arp_announce_retries)
        self.arp_announce_backoff = float(arp_announce_backoff)
        self.arp_reannounce_interval = float(arp_reannounce_interval)
        self.conflict_reannounce = bool(conflict_reannounce)
        self.arp_conflict_resolution = bool(arp_conflict_resolution)
        self.arp_conflict_holddown = float(arp_conflict_holddown)
        # A zero period re-arms at the same instant for ever (the run
        # livelocks); a negative delay would fail only at first use.
        for name, zero_ok in (
            ("balance_timeout", False),
            ("reconnect_interval", False),
            ("maturity_timeout", True),
            ("arp_conflict_holddown", True),
        ):
            value = getattr(self, name)
            if not (value >= 0 if zero_ok else value > 0):
                raise ValueError(
                    "{} must be {}, got {}".format(name, ">= 0" if zero_ok else "positive", value)
                )
        if stabilization is not None and not isinstance(stabilization, StabilizationConfig):
            raise TypeError("stabilization must be a StabilizationConfig or None")
        self.stabilization = stabilization or StabilizationConfig()
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

    @staticmethod
    def profile(name):
        """Keyword overrides for a named hardening profile."""
        return profile_overrides(_PROFILES, name)

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

"""The hardening profiles: one table, one row per named profile.

The paper's daemons (§4, §6) have no hardening: that is the ``paper``
row. ``hardened`` adds the gray-failure defences of ``docs/FAULTS.md``
(K-miss suspicion, ARP retries and re-announcement, conflict
resolution, a fast reconnect cycle, daemon supervisors);
``stabilizing`` adds the periodic local invariant audits argued for by
"Practically-Self-Stabilizing Virtual Synchrony" (Dolev et al.), which
repair the state the corruption repertoire (:mod:`repro.net.fault`)
perturbs through the existing re-announcement and membership paths.

A cluster names its profile once — ``ServerGroup(profile=)`` or the
``profile`` argument of :class:`repro.core.config.WackamoleConfig` and
:class:`repro.gcs.config.SpreadConfig` — and each layer reads its
fields off the row its config carries:

* ``suspicion_misses`` — consecutive detection-timer expiries before a
  peer is suspected (``gcs/failure.py``);
* ``arp_announce_retries`` / ``arp_announce_backoff`` — extra copies
  of each acquisition's spoofed ARP announcement, with doubling backoff
  (``core/notify.py``);
* ``arp_reannounce_interval`` — periodic gratuitous re-announcement of
  every held VIP, 0 for none (``core/daemon.py``);
* ``conflict_reannounce`` — the winner of a GATHER duplicate-VIP
  conflict re-announces the address it kept (``core/daemon.py``);
* ``arp_conflict_resolution`` / ``arp_conflict_holddown`` — act on a
  wire-level duplicate claim after the holddown (``core/daemon.py``);
* ``reconnect_interval`` — the retry cycle after losing the local GCS
  daemon (§4.2, ``core/daemon.py``);
* ``audit_interval`` — seconds between local invariant audits, 0 for
  none (``gcs/daemon.py``, ``core/daemon.py``);
* ``supervisor`` — the :class:`Supervision` settings of each host's
  :class:`~repro.core.supervisor.DaemonSupervisor`, or None for the
  paper's unsupervised servers (``apps/cluster.py``).

The table holds no knob of its own: an ablation builds a variant row
with ``PROFILES[name]._replace(...)`` and passes the row where a name
would go. The segmented plane's :class:`repro.gcs.segments.SegmentConfig`
reads no row: a corrupted segment epoch is repaired by the heartbeats'
epoch fast-forward.
"""

from collections import namedtuple

Profile = namedtuple(
    "Profile",
    "suspicion_misses arp_announce_retries arp_announce_backoff arp_reannounce_interval"
    " conflict_reannounce arp_conflict_resolution arp_conflict_holddown"
    " reconnect_interval audit_interval supervisor",
)

Supervision = namedtuple(
    "Supervision", "check_interval stall_checks restart_backoff backoff_cap stable_after"
)

#: The supervisors of the hardened profiles: a check every 0.5 s, a
#: restart after three checks with no traffic sent, backoff 0.5 s
#: doubling to 4 s and reset after 5 s without a restart.
_SUPERVISED = Supervision(0.5, 3, 0.5, 4.0, 5.0)

#: The audit the ``stabilizing`` row runs in every layer is 0.5 s: fast
#: enough that a corruption is caught well inside the check trials'
#: corruption grace window, slow enough that the audit itself stays
#: background noise against the fast Table 1 ratios.
PROFILES = {
    #                       K retries backoff re-ann. conflict resolve holdd. reconn. audit
    "paper": Profile(      1, 0,      0.5,    0.0,    False,   False,  1.0,   2.0,    0.0,
                           None),
    "hardened": Profile(   2, 2,      0.3,    2.0,    True,    True,   0.5,   0.5,    0.0,
                           _SUPERVISED),
    "stabilizing": Profile(2, 2,      0.3,    2.0,    True,    True,   0.5,   0.5,    0.5,
                           _SUPERVISED),
}


def lookup(profile):
    """The row ``profile`` names; a row (an ablation's variant) is its own."""
    if isinstance(profile, Profile):
        return profile
    if profile not in PROFILES:
        raise ValueError(
            "unknown profile {!r}; choose from {}".format(profile, list(PROFILES))
        )
    return PROFILES[profile]

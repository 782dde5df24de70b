"""Self-stabilization knobs (shared by core and gcs).

"Practically-Self-Stabilizing Virtual Synchrony" (Dolev et al.) argues
that a membership/ordering stack should converge from *any* reachable
state, not just from the clean crash/partition faults the paper's
experiments induce. The repo's corruption repertoire
(:mod:`repro.net.fault`) perturbs protocol state directly — allocation
tables vs. NIC bindings, membership views, ordering counters, segment
epochs — and each protocol layer carries a periodic *local invariant
audit* that detects out-of-invariant state and repairs it through the
existing re-announcement and membership paths.

One :class:`StabilizationConfig` instance rides on each layer's config
(:class:`repro.core.config.WackamoleConfig`,
:class:`repro.gcs.config.SpreadConfig`). The segmented plane's
:class:`repro.gcs.segments.SegmentConfig` carries none: a corrupted
segment epoch is repaired by the heartbeats' epoch fast-forward. The
default —
``interval=0`` — disables the audit entirely, reproducing historical
behaviour byte-for-byte; the ``stabilizing`` profile (what ``--corrupt``
campaigns run) switches it on.

The config classes share one vocabulary of named hardening profiles,
:data:`PROFILES`: ``paper`` is the daemon the paper describes (every
hardening knob off), ``hardened`` adds the gray-failure defences of
``docs/FAULTS.md`` (K-miss suspicion, ARP retries and conflict
resolution, daemon supervisors), ``stabilizing`` adds the periodic
audits on top. Each class keeps its own table of what a profile means
for it and answers ``<Config>.profile(name)`` with keyword overrides.
"""

PROFILES = ("paper", "hardened", "stabilizing")


def profile_overrides(table, name):
    """A fresh copy of ``table[name]``; unknown names fail loudly."""
    if name not in table:
        raise ValueError(
            "unknown profile {!r}; choose from {}".format(name, list(PROFILES))
        )
    return dict(table[name])


class StabilizationConfig:
    """Periodic local-invariant audit knobs for one protocol layer.

    ``interval`` is the seconds between audits; 0 (the default)
    disables the audit timer entirely (historical behaviour). A finding
    that cannot be repaired locally (delivery skipped past the log,
    view/detector disagreement) escalates into the layer's heavyweight
    recovery path (a membership GATHER).
    """

    __slots__ = ("interval",)

    def __init__(self, interval=0.0):
        if float(interval) < 0:
            raise ValueError("interval must be >= 0, got {}".format(interval))
        self.interval = float(interval)

    @property
    def enabled(self):
        """True when the periodic audit should run."""
        return self.interval > 0

    def __repr__(self):
        return "StabilizationConfig(interval={})".format(self.interval)


#: The audit the ``stabilizing`` profile runs in every layer: fast
#: enough that a corruption is caught well inside the check trials'
#: corruption grace window, slow enough that the audit itself stays
#: background noise against the fast Table 1 ratios.
STABILIZING = StabilizationConfig(interval=0.5)

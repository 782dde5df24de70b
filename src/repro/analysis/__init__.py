"""Static analysis for the protocol invariants the dynamic oracles miss.

Nondeterminism (clocks, global randomness, escaping set order, RNG
streams crossing components, state outliving one simulation) is caught
by the golden pins, replay and shard parity, so no rule looks for it.
What they miss is a write that lands in the same place by another
route: ``repro lint`` runs PROTO003 (:mod:`repro.analysis.proto003`)
over the tree, honouring per-line ``# repro: allow PROTO003``
suppressions — the one way to accept a finding — and extracts the
protocol state machines behind ``repro lint --state-machines``.
"""

from repro.analysis.engine import Finding, LintResult, lint, load_project
from repro.analysis.statemachine import DEFAULT_STATE_MACHINES, render_state_machines

__all__ = [
    "DEFAULT_STATE_MACHINES",
    "Finding",
    "LintResult",
    "lint",
    "load_project",
    "render_state_machines",
]

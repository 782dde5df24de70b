"""Static analysis for the protocol invariants the dynamic oracles miss.

Nondeterminism (clocks, global randomness, escaping set order, RNG
streams crossing components, state outliving one simulation) is caught
by the golden pins, replay and shard parity, so no rule looks for it.
What they miss is a write that lands in the same place by another
route: ``repro lint`` runs the rule set in :mod:`repro.analysis.rules`
over the tree, honouring per-line ``# repro: allow <rule>``
suppressions — the one way to accept a finding — and extracts the
protocol state machines behind ``repro lint --state-machines``.
"""

from repro.analysis.engine import LintConfig, Linter, LintResult, load_project
from repro.analysis.findings import Finding
from repro.analysis.registry import all_rules, get_rule
from repro.analysis.statemachine import render_state_machines

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Linter",
    "all_rules",
    "get_rule",
    "load_project",
    "render_state_machines",
]

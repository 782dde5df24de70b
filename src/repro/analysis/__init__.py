"""Static analysis for determinism and protocol invariants.

The whole reproduction rests on byte-identical deterministic replay
(:mod:`repro.check`), so nondeterminism sources — wall clocks, unseeded
randomness, unordered iteration that escapes into traces or messages,
id()/hash() tie-breaks, real threads — must be caught at lint time,
not after thousands of fault-schedule trials. ``repro lint`` runs the
rule set in :mod:`repro.analysis.rules` over the tree, honouring
per-line ``# repro: allow <rule>`` suppressions — the one way to
accept a finding.
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

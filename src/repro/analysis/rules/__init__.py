"""Rule modules; importing this package populates the registry."""

from repro.analysis.rules import proto003_transitions  # noqa: F401

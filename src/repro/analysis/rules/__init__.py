"""Rule modules; importing this package populates the registry."""

from repro.analysis.rules import (  # noqa: F401
    det001_host,
    det003_unordered,
    det005_rngflow,
    proto002_completeness,
    proto003_transitions,
    shard001_sharedstate,
)

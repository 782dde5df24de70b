"""Deterministic replay of saved failure artifacts.

An artifact embeds the exact trial spec (seed + schedule) and the
failure it produced. Replaying re-runs the spec and demands an
*identical* result — same verdict, same violation list, same trace
tail — which is the whole point of keeping trials pure functions of
their specs: a failure found by a campaign last week reproduces on a
developer's machine today, byte for byte.
"""

import json

from repro.check.campaign import ARTIFACT_FORMAT
from repro.check.trial import run_trial, trial_schedule

# Result fields that must match byte-for-byte on replay. sim_time,
# counters, the per-trial metrics summary, the extracted fail-over
# episode records, the injector's fault log and the degraded-mode
# spans and the coverage intervals are all included: a divergence there
# means nondeterminism even if the violation happens to look the same.
_COMPARED_FIELDS = (
    "verdict",
    "sim_time",
    "violations",
    "violation_kinds",
    "trace_tail",
    "metrics",
    "episodes",
    "fault_log",
    "degraded",
    "flow",
    "coverage",
)


def load_artifact(path):
    """Read and validate an artifact, down to each event of its schedule."""
    with open(str(path)) as handle:
        artifact = json.load(handle)
    if artifact.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            "not a repro-check artifact (format={!r})".format(artifact.get("format"))
        )
    trial_schedule(artifact["spec"])
    return artifact


class ReplayReport:
    """Outcome of one replay: fresh result vs. the saved one."""

    def __init__(self, artifact, result):
        self.artifact = artifact
        self.result = result
        self.diffs = []
        saved = artifact["result"]
        for field in _COMPARED_FIELDS:
            if saved.get(field) != result.get(field):
                self.diffs.append(field)

    @property
    def match(self):
        return not self.diffs

    def format(self):
        saved = self.artifact["result"]
        lines = [
            "replay: saved verdict={} fresh verdict={}".format(
                saved["verdict"], self.result["verdict"]
            )
        ]
        if self.match:
            lines.append("  identical reproduction (all compared fields match)")
        else:
            lines.append("  DIVERGED on: {}".format(", ".join(self.diffs)))
            if "episodes" in self.diffs:
                lines.append(
                    "  episode records differ: saved {} vs fresh {}".format(
                        len(saved.get("episodes", [])),
                        len(self.result.get("episodes", [])),
                    )
                )
        for line in self.result.get("trace_tail", [])[-8:]:
            lines.append("  {}".format(line))
        return "\n".join(lines)


def replay(artifact_or_path):
    """Re-run an artifact's spec and compare against its saved result."""
    artifact = (
        artifact_or_path
        if isinstance(artifact_or_path, dict)
        else load_artifact(artifact_or_path)
    )
    result = run_trial(artifact["spec"])
    return ReplayReport(artifact, result)

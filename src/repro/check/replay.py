"""Deterministic replay of saved failure artifacts.

An artifact embeds the exact trial spec (seed + schedule) and the
result it produced. Replaying re-runs the spec and demands an
*identical* result — every key either side has, compared in JSON form,
so a key a result gains is compared without being listed — which is
the whole point of keeping trials pure functions of their specs: a
failure found by a campaign last week reproduces on a developer's
machine today, byte for byte. A spec saved before a knob existed gets
the knob's default from :func:`~repro.check.trial.make_spec`.
"""

import json

from repro.check.campaign import ARTIFACT_FORMAT
from repro.check.trial import make_spec, run_trial, trial_schedule


def load_artifact(path):
    """Read an artifact file and check it as :func:`checked_artifact` does."""
    with open(str(path)) as handle:
        return checked_artifact(json.load(handle))


def checked_artifact(artifact):
    """``artifact`` with its spec completed, checked down to each event of its schedule.

    Raises ValueError for anything but an artifact object with a spec
    and a result, for a spec, schedule or event that is not an object,
    lacks a field it needs or holds a value of the wrong type, for an
    unknown spec field and for a schedule its stack cannot run.
    """
    if not isinstance(artifact, dict):
        raise ValueError("not a repro-check artifact (a JSON {}, not an object)".format(
            type(artifact).__name__))
    if artifact.get("format") != ARTIFACT_FORMAT:
        raise ValueError("not a repro-check artifact (format={!r})".format(artifact.get("format")))
    _fields(artifact, "artifact", "spec", "result")
    try:
        schedule = _fields(artifact["spec"], "artifact spec", "seed", "schedule")["schedule"]
        for event in _fields(schedule, "spec schedule", "events", "horizon")["events"]:
            _fields(event, "schedule event", "kind", "time")
        spec = make_spec(**artifact["spec"])
        trial_schedule(spec)
    except TypeError as problem:  # a value of the wrong JSON type, such as a null time
        raise ValueError("artifact spec: {}".format(problem)) from None
    return dict(artifact, spec=spec)


def _fields(value, name, *fields):
    """``value``, if it is a JSON object holding ``fields``; else ValueError naming them."""
    if not isinstance(value, dict):
        raise ValueError("{} is a JSON {}, not an object".format(name, type(value).__name__))
    for field in fields:
        if field not in value:
            raise ValueError("{} has no {}".format(name, field))
    return value


class ReplayReport:
    """Outcome of one replay: fresh result vs. the saved one."""

    def __init__(self, artifact, result):
        self.artifact = artifact
        self.result = result
        # JSON form on both sides: a saved result has lists where a
        # fresh one may hold tuples.
        saved, fresh = (json.loads(json.dumps(r)) for r in (artifact["result"], result))
        self.diffs = sorted(
            key for key in set(saved) | set(fresh)
            if key not in saved or key not in fresh or saved[key] != fresh[key]
        )

    @property
    def match(self):
        return not self.diffs

    def format(self):
        saved = self.artifact["result"]
        lines = [
            "replay: saved verdict={} fresh verdict={}".format(
                saved.get("verdict"), self.result["verdict"]
            )
        ]
        if self.match:
            lines.append("  identical reproduction (every result key matches)")
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
        checked_artifact(artifact_or_path)
        if isinstance(artifact_or_path, dict)
        else load_artifact(artifact_or_path)
    )
    return ReplayReport(artifact, run_trial(artifact["spec"]))

"""repro.check — systematic fault-schedule exploration.

The paper's correctness claims (Property 1: exact VIP coverage per
connected component; Property 2: convergence after stabilization) are
only as strong as the fault interleavings they were tested under. This
package *searches* for schedules that break them:

* :mod:`repro.check.schedule` — the fault repertoire table and the
  randomized but fully deterministic schedules drawn from it,
  serialized as replayable JSON.
* :mod:`repro.check.trial` — one trial on either stack (faithful or
  scale): fresh simulation, fresh cluster, Property 1 audited at every
  change, end-of-trial convergence; or a scale spec's serial-vs-sharded
  parity check.
* :mod:`repro.check.campaign` — fan trials across worker processes
  with per-trial forked RNG seeds; shrink and archive failures.
* :mod:`repro.check.shrink` — delta-debugging minimization of a
  failing schedule to the fewest fault events that still reproduce.
* :mod:`repro.check.replay` — byte-identical reproduction of a saved
  failure artifact.
* :mod:`repro.check.fixtures` — daemon variants, including planted
  bugs used to prove the campaign can actually find violations.
"""

from repro.check.campaign import (
    CampaignReport,
    build_specs,
    build_trial_spec,
    campaign_params,
    run_campaign,
    run_campaign_trials,
)
from repro.check.replay import load_artifact, replay
from repro.check.schedule import FaultEvent, FaultSchedule, generate_schedule
from repro.check.shrink import shrink_spec
from repro.check.trial import make_spec, run_trial

__all__ = [
    "CampaignReport",
    "FaultEvent",
    "FaultSchedule",
    "build_specs",
    "build_trial_spec",
    "campaign_params",
    "generate_schedule",
    "load_artifact",
    "make_spec",
    "replay",
    "run_campaign",
    "run_campaign_trials",
    "run_trial",
    "shrink_spec",
]

"""A revived representative does not livelock the ring (Property 2).

A restarted daemon comes back with ``highest_counter`` at 0. With the
lowest id it is the representative, and its proposals sit below the
view its members already hold: each member ACKs, then drops the
INSTALL as stale and times out waiting for another, one round per view
the representative missed. The representative now reads the member's
view from the ACK's recovery digest and proposes past it at once.
"""

import pytest

from repro.check import build_trial_spec, campaign_params, run_trial
from repro.check import trial as trial_module
from repro.check.schedule import CRASH, PARTITION, FaultEvent, FaultSchedule
from repro.check.trial import make_spec
from repro.sim.simulation import Simulation


def isolations_then_revival(k, cycle=4.0, cut=2.0):
    """``s0`` is down while ``s1`` is cut away ``k`` times, then revives.

    Each cut and heal makes the other daemons install about two views,
    so ``s0``'s counter comes back about ``2 k`` views behind theirs.
    """
    events = [
        FaultEvent(PARTITION, 2.0 + cycle * i, duration=cut, split=(1,)) for i in range(k)
    ]
    down = 2.0 + cycle * k
    events.append(FaultEvent(CRASH, 1.0, host=0, duration=down))
    return FaultSchedule(events, 1.0 + down)


@pytest.mark.parametrize("k", [2, 8, 20])
def test_a_revived_representative_converges_without_dropped_installs(k, monkeypatch):
    sims = []

    def kept(*args, **kwargs):
        sims.append(Simulation(*args, **kwargs))
        return sims[-1]

    monkeypatch.setattr(trial_module, "Simulation", kept)
    schedule = isolations_then_revival(k)
    result = run_trial(make_spec(7, schedule, n_servers=5, n_vips=10, trace_capacity=None))
    assert result["verdict"] == "pass"
    records = sims[0].trace.records
    assert [r for r in records if r.event == "stale_install"] == []
    assert [r for r in records if r.details.get("reason") == "no INSTALL received"] == []
    # Boot, then the last healing action, then one regather: the same
    # for every k. Without the re-proposal it was 6.6 s at k = 2, 16.2 s
    # at k = 8, and k = 20 did not converge within the settle timeout.
    assert result["sim_time"] - schedule.tail_time() == pytest.approx(2.4)


# 600 simulated seconds at 8 servers: 1.5 s of wall, so it runs in the soak job.
@pytest.mark.slow
def test_the_long_trial_converges_at_the_default_settle_timeout():
    """Base seed 2026, trial 0: a revived ``s0`` proposed 53 stale views
    after the last heal at 588.0 s and the trial ended ``no_convergence``."""
    params = campaign_params(
        base_seed=2026, trials=2, n_servers=8, n_vips=16, horizon=600.0,
        events_per_trial=60,
    )
    spec = build_trial_spec(params, 0)
    assert spec["seed"] == 12294681351690831010
    result = run_trial(spec)
    assert (result["verdict"], result["sim_time"], result["events_fired"]) == (
        "pass", 601.4, 63433
    )

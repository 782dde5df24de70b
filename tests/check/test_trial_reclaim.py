"""A trial frees its world when it returns, and leaves the collector as it was.

A trial's world is a web of reference cycles (host and NIC, process and
timer, the scheduler's heap), so reference counting alone never frees
it. ``run_trial`` pauses the collector for the trial and makes one
young collection after it; these tests count what survives without
collecting themselves.
"""

import gc

import pytest

from repro.check import trial as trial_module
from repro.check.campaign import build_trial_spec, campaign_params
from repro.check.schedule import FaultEvent, FaultSchedule, scale_schedule
from repro.check.trial import make_spec, run_trial
from repro.gcs.daemon import SpreadDaemon
from repro.gcs.ordering import ViewOrderer
from repro.sim.simulation import Simulation


def live_simulations():
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Simulation))


def faithful_spec(seed):
    events = [FaultEvent("crash", 2.0, host=0, duration=3.0)]
    return make_spec(seed, FaultSchedule(events, 10.0), n_servers=3, n_vips=4)


def scale_spec(seed):
    schedule = scale_schedule(seed, 32, 8, 1)
    return make_spec(seed, schedule, stack="scale", n_servers=32, n_vips=64, segment_size=8)


@pytest.mark.parametrize("build", [faithful_spec, scale_spec], ids=["faithful", "scale"])
def test_no_simulation_outlives_its_trial(build):
    gc.collect()  # the baseline: every Simulation still tracked is reachable
    before = live_simulations()
    for seed in range(3):
        assert run_trial(build(seed))["verdict"] == "pass"
    assert live_simulations() == before


@pytest.fixture
def collector_seen(monkeypatch):
    """Whether the collector was on while the trial ran, as the trial saw it."""
    seen = []
    checked = trial_module.trial_schedule

    def recording(spec):
        seen.append(gc.isenabled())
        return checked(spec)

    monkeypatch.setattr(trial_module, "trial_schedule", recording)
    return seen


@pytest.mark.parametrize("was_on", [True, False], ids=["on", "caller_off"])
def test_the_collector_is_paused_for_the_trial_and_restored(collector_seen, was_on):
    (gc.enable if was_on else gc.disable)()
    try:
        run_trial(faithful_spec(0))
        assert gc.isenabled() is was_on
    finally:
        gc.enable()
    assert collector_seen == [False]


def test_a_trial_that_raises_restores_the_collector(collector_seen):
    gc.enable()
    past = [FaultEvent("crash", 1.0, host=3, duration=1.0)]
    with pytest.raises(ValueError, match="aims past"):
        run_trial(make_spec(1, FaultSchedule(past, 5.0), n_servers=3, n_vips=4))
    assert gc.isenabled()
    assert collector_seen == [False]


def tracked(cls):
    return sum(1 for obj in gc.get_objects() if isinstance(obj, cls))


# A long corrupt trial reconfigures hundreds of times; at 2 s it runs in the soak job.
@pytest.mark.slow
def test_a_long_trial_keeps_one_orderer_per_daemon_until_it_returns(monkeypatch):
    """Base seed 2026, trial 1: 531 retired orderers were still tracked when
    the trial returned, each in a cycle with its own timers, until the
    closing collection. Now only each daemon's current one is."""
    params = campaign_params(
        base_seed=2026, trials=2, n_servers=8, n_vips=16, horizon=600.0,
        events_per_trial=60, corrupt=True,
    )
    counted = {}
    inner = trial_module._trial

    def counting(spec):
        result = inner(spec)
        counted.update(orderers=tracked(ViewOrderer), daemons=tracked(SpreadDaemon))
        return result

    monkeypatch.setattr(trial_module, "_trial", counting)
    result = run_trial(build_trial_spec(params, 1))
    assert (result["verdict"], result["events_fired"]) == ("pass", 125_614)
    assert counted["daemons"] >= 8  # the live daemons and every restart
    assert counted["orderers"] <= counted["daemons"]

"""A trial's episodes and spans do not depend on its trace window.

The artifact's ``episodes``, ``degraded`` and ``stabilization`` lists
come from folds fed as records are written, so a trial whose trace
outgrows ``trace_capacity`` still reports every one of them.
"""

import pytest

from repro.check import build_trial_spec, campaign_params, run_trial
from repro.check import trial as trial_module
from repro.check.trial import make_spec
from repro.obs.episodes import episodes_as_dicts
from repro.obs.spans import degraded_spans_as_dicts, stabilization_spans_as_dicts
from repro.sim.simulation import Simulation


def pool_spec(index, **repertoire):
    params = campaign_params(
        base_seed=2004,
        trials=40,
        n_servers=5,
        n_vips=10,
        horizon=60,
        events_per_trial=12,
        **repertoire
    )
    return build_trial_spec(params, index)


def test_an_overflowing_trial_keeps_its_early_episodes_and_spans():
    # 4 893 records against the 4 096-record window: a result built
    # from the retained records alone reports 5, 4 and 1.
    result = run_trial(pool_spec(9, corrupt=True))
    assert result["verdict"] == "pass"
    assert result["metrics"]["sim.trace_dropped"] == 4893 - 4096
    assert len(result["episodes"]) == 5
    assert len(result["degraded"]) == 5
    assert len(result["stabilization"]) == 2


def test_a_trial_that_drops_nothing_has_no_drop_metric():
    result = run_trial(pool_spec(0))
    assert "sim.trace_dropped" not in result["metrics"]


@pytest.mark.parametrize(
    "repertoire, index",
    [({}, 0), ({}, 1), ({"gray": True}, 0), ({"gray": True}, 4),
     ({"corrupt": True}, 0), ({"corrupt": True}, 9)],
    ids=["standard-0", "standard-1", "gray-0", "gray-4", "corrupt-0", "corrupt-9"],
)
def test_a_tiny_window_folds_what_the_whole_trace_holds(repertoire, index, monkeypatch):
    spec = pool_spec(index, **repertoire)
    sims = []

    def kept(*args, **kwargs):
        sims.append(Simulation(*args, **kwargs))
        return sims[-1]

    monkeypatch.setattr(trial_module, "Simulation", kept)
    whole = run_trial(dict(spec, trace_capacity=None))
    records = sims[0].trace.records
    tiny = run_trial(dict(spec, trace_capacity=64))
    assert tiny["metrics"].pop("sim.trace_dropped") == len(records) - 64
    assert tiny == whole
    assert whole["episodes"] == episodes_as_dicts(records)
    assert whole["degraded"] == degraded_spans_as_dicts(records)
    if repertoire.get("corrupt"):
        assert whole["stabilization"] == stabilization_spans_as_dicts(records)


@pytest.mark.parametrize("capacity", [-1, 0, 2.5])
def test_a_spec_with_a_bad_window_fails_loudly(capacity):
    with pytest.raises(ValueError, match="trace_capacity"):
        make_spec(1, {"events": [], "horizon": 10.0}, trace_capacity=capacity)

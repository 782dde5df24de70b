"""End-to-end tests for ``repro observe`` and the observation driver."""

import pytest

from helpers import shared

from repro.cli import main
from repro.obs.dashboard import jsonl_observation
from repro.obs.observe import run_observation


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


@pytest.fixture(scope="module")
def observed():
    yield from shared(
        run_observation(seed=7, fault="crash", settle=8.0, observe_for=8.0),
        # A live world: unchanged means not run on and its record not edited.
        snapshot=lambda pair: (pair[0].sim.now, pair[0].sim.metrics.totals(),
                               pair[1].series("covered")),
    )


@pytest.fixture(scope="module")
def observation(observed):
    return observed[0]


def test_observation_covers_all_layers(observation):
    layers = observation.sim.metrics.layers()
    for layer in ("sim", "net", "gcs", "core", "workload"):
        assert layer in layers
    assert len(observation.sim.metrics) > 0


def test_observation_produces_a_complete_fault_episode(observation):
    episode = observation.failover_episode()
    assert episode is not None
    assert episode.trigger_kind == "fault:crash"
    assert episode.victim == observation.victim
    phases = episode.phase_durations()
    for phase in ("detection", "membership", "client_recovery", "total"):
        assert phases[phase] is not None and phases[phase] > 0.0
    assert observation.interruption is not None and observation.interruption > 0.0


def test_observation_observer_saw_the_coverage_dip(observed):
    observation, coverage = observed
    covered = coverage.series("covered")
    assert covered
    full = max(value for _time, value in covered)
    # The pool was fully covered just before the fault and dipped after it.
    before = [v for t, v in covered if t < observation.fault_time]
    after = [v for t, v in covered if t >= observation.fault_time]
    assert before[-1] == full
    assert min(after) < full
    assert after[-1] == full  # ...and recovered by the end of the window
    # coverage_dip reports the first dip, which is the boot-time ramp.
    assert coverage.coverage_dip() is not None
    assert coverage.coverage_gap_s > 0.0
    metrics = observation.sim.metrics
    assert metrics.gauge("core.coverage_gap_s", node="cluster").value == round(
        coverage.coverage_gap_s, 9
    )


def test_same_seed_renders_byte_identical_jsonl():
    first, _ = run_observation(seed=11, fault="nic_down", settle=8.0, observe_for=8.0)
    second, _ = run_observation(seed=11, fault="nic_down", settle=8.0, observe_for=8.0)
    assert jsonl_observation(first, 11, "nic_down") == jsonl_observation(second, 11, "nic_down")


def test_unknown_fault_mode_rejected():
    with pytest.raises(ValueError):
        run_observation(fault="meteor")


def test_cli_observe_text_dashboard():
    code, output = run_cli(
        ["observe", "--seed", "7", "--settle", "6", "--duration", "6"]
    )
    assert code == 0
    assert "repro observe — seed 7" in output
    assert "fail-over episodes" in output
    assert "probe interruption" in output


def test_cli_observe_jsonl():
    code, output = run_cli(
        ["observe", "--seed", "7", "--settle", "6", "--duration", "6",
         "--format", "jsonl"]
    )
    assert code == 0
    first_line = output.split("\n", 1)[0]
    assert first_line.startswith('{"fault":"crash"')
    assert '"type":"episode"' in output

"""``repro observe --cost``: the meter times events and changes nothing."""

from contextlib import nullcontext

import pytest

from repro.apps.scalecluster import ScaleClusterScenario
from repro.cli import main
from repro.obs.cost import event_kind, metered
from repro.sim.events import Event
from repro.sim.shard.pool import fork_available
from repro.sim.simulation import Simulation
from repro.sim.timers import Timer


def _scale_run(meter):
    scenario = ScaleClusterScenario(seed=3, n_hosts=64, n_vips=256, trace_enabled=True)
    scenario.start()
    assert scenario.settle()
    with meter:
        scenario.kill(0)  # a segment leader: lease expiry and succession
        scenario.sim.run_for(4.0)
        scenario.revive(0)
        scenario.sim.run_for(4.0)
    return (
        scenario.fingerprint(),
        [repr(record) for record in scenario.sim.trace.records],
        scenario.sim.scheduler.events_fired,
    )


def test_metered_run_is_byte_identical_to_a_plain_one():
    plain = Event.fire
    table = {}
    assert _scale_run(metered(table)) == _scale_run(nullcontext())
    assert Event.fire is plain
    # Timers by name, arrivals by payload class.
    assert {"seg_heartbeat", "seg_beacon", "recv SegHeartbeat", "recv LeaderBeacon"} <= set(table)
    assert all(events > 0 and wall >= 0.0 for events, wall in table.values())


def test_timer_names_fold_at_the_colon():
    sim = Simulation(seed=1)
    timer = Timer(sim.scheduler, lambda: None, name="fd:s2")
    assert event_kind(timer._fire, ()) == "fd"
    assert event_kind(test_timer_names_fold_at_the_colon, ()) == (
        "test_timer_names_fold_at_the_colon"
    )


def test_a_metered_check_trial_folds_partials_to_their_function():
    # The harness schedules a revive as ``partial(self._revive, host)``.
    from repro.check.schedule import FaultEvent, FaultSchedule
    from repro.check.trial import make_spec, run_trial

    spec = make_spec(5, FaultSchedule([FaultEvent("crash", 1.0, host=0, duration=2.0)], 8.0),
                     n_servers=3, n_vips=4)
    table = {}
    with metered(table):
        metered_result = run_trial(spec)
    assert metered_result == run_trial(spec)
    assert metered_result["restarts"] == 1
    assert table["CheckCluster._revive"][0] == 1


def test_cli_cost_report_prints_rows_and_the_meter_overhead():
    lines = []
    code = main(["observe", "--cost", "--hosts", "64", "--duration", "3"], out=lines.append)
    report = "\n".join(lines).splitlines()
    assert code == 0
    assert report[0] == "cost by kind: 64 hosts, 3 simulated s after settle (seed 7)"
    rows = {line.split()[0] for line in report[2:-1]}
    assert {"seg_heartbeat", "seg_leader_watch", "total"} <= rows
    assert report[-1].startswith("meter overhead: ")


def test_hosts_without_cost_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["observe", "--hosts", "64"])
    assert stop.value.code == 2
    assert "--hosts" in capsys.readouterr().err


def test_cli_shard_report_prints_a_row_per_shard_and_the_advance_share():
    if not fork_available():
        pytest.skip("fork start method unavailable")
    lines = []
    code = main(["observe", "--cost", "--shards", "2", "--hosts", "64", "--duration", "2"],
                out=lines.append)
    report = "\n".join(lines).splitlines()
    assert code == 0
    assert report[0] == "kernel cost: 64 hosts on 2 forked shards, 2 simulated s from boot (seed 7)"
    assert report[1].split() == ["shard", "build_s", "advance_s", "events", "bytes"]
    rows = [line.split() for line in report[2:-1]]
    assert [row[0] for row in rows] == ["0", "1"]
    # Both worlds ran their two cells, and both sent their artifacts back.
    assert all(float(row[2]) > 0.0 and int(row[3]) > 0 and int(row[4]) > 0 for row in rows)
    assert report[-1].startswith("run wall ") and " advance " in report[-1]


@pytest.mark.parametrize("argv, problem", [
    (["observe", "--shards", "2"], "with --cost"),
    (["observe", "--cost", "--shards", "3", "--hosts", "64"], "at most 2"),
    (["observe", "--cost", "--shards", "1"], "at least 2"),
])
def test_shards_outside_the_report_or_the_cells_is_a_usage_error(argv, problem, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "--shards" in err and problem in err

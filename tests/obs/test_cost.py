"""``repro observe --cost``: the meter times events and changes nothing."""

from contextlib import nullcontext

import pytest

from repro.apps.scalecluster import ScaleClusterScenario
from repro.cli import main
from repro.obs.cost import event_kind, metered
from repro.sim.events import Event
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

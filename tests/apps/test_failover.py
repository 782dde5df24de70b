"""The one §6 measurement: ``measure_failover`` and the ``Failover`` it returns.

The hand-rolled reference it is held to lives in
``tests/test_golden_artifacts.py`` (``_web_nic_down`` and
``_router_fail_active``); these tests pin the routine's own contract.
"""

from repro.apps.cluster import fault_phase, measure_failover
from repro.apps.routercluster import RouterClusterScenario
from repro.apps.webcluster import WebClusterScenario
from repro.experiments import runner, table1
from repro.gcs.config import SpreadConfig
from repro.obs.episodes import EpisodeFold, episodes_as_dicts


def settled_web(**kwargs):
    scenario = WebClusterScenario(
        seed=3,
        n_servers=3,
        n_vips=6,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 1.0, "balance_enabled": False},
        **kwargs
    ).start()
    assert scenario.run_until_stable(timeout=30.0)
    return scenario


def test_web_measurement_fields_match_the_hand_rolled_reads():
    scenario = settled_web()
    probe = scenario.start_probe()
    scenario.sim.run_for(0.5)
    owner = scenario.owner_of(scenario.vips[0])
    before = scenario.sim.now
    failover = scenario.measure_failover("nic_down", 5.0)
    assert failover.fault_time == before
    assert scenario.sim.now == before + 5.0
    assert failover.victim == owner.host.name
    assert failover.takeover == scenario.owner_of(scenario.vips[0]).host.name
    assert failover.takeover != failover.victim
    assert failover.interruption == probe.failover_interruption(after=before)
    assert failover.longest_gap == probe.longest_gap(after=before)
    lo, hi = SpreadConfig.tuned().notification_window()
    assert lo - 0.1 <= failover.interruption <= hi + 1.0
    # The probe was stopped: running on sends nothing more.
    sent = probe.requests_sent
    scenario.sim.run_for(1.0)
    assert probe.requests_sent == sent
    episode = failover.failover_episode()
    assert episode.trigger_kind == "fault:nic_down"
    assert episode.victim == failover.victim
    assert episode.trigger_time >= failover.fault_time


def test_episodes_are_extracted_once(monkeypatch):
    """The group's fold stitched the episodes as the trace was written."""
    scenario = settled_web()
    failover = scenario.measure_failover("crash", 5.0)
    offline = episodes_as_dicts(scenario.sim.trace.records)
    calls = []
    over = EpisodeFold.over

    def counting(records):
        calls.append(len(records))
        return over(records)

    monkeypatch.setattr(EpisodeFold, "over", counting)
    first = failover.episodes
    assert failover.episodes is first
    assert failover.failover_episode() in first
    assert calls == []  # reading them re-stitches nothing
    assert [episode.to_dict() for episode in first] == offline


def test_untraced_run_has_no_episodes_and_unprobed_run_no_interruption():
    scenario = settled_web(trace_enabled=False)
    failover = scenario.measure_failover("nic_down", 5.0)
    assert failover.episodes == ()
    assert failover.failover_episode() is None
    assert failover.interruption is None
    assert failover.longest_gap is None
    assert failover.victim != failover.takeover  # the cluster did fail over


def test_router_measurement():
    scenario = RouterClusterScenario(
        seed=5,
        n_routers=2,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 1.0},
    ).start()
    assert scenario.run_until_stable(timeout=60.0)
    probe = scenario.start_probe()
    scenario.sim.run_for(1.0)
    active = scenario.active_router()
    failover = scenario.measure_failover("crash", 20.0)
    assert failover.victim == active.host.name
    assert failover.takeover == scenario.active_router().host.name
    assert failover.takeover != failover.victim
    assert failover.longest_gap == probe.longest_gap(after=failover.fault_time)
    assert failover.longest_gap <= SpreadConfig.tuned().notification_window()[1] + 1.0
    assert failover.failover_episode().trigger_kind == "fault:crash"


def test_a_bare_callable_is_enough():
    scenario = settled_web()
    owner = scenario.owner_of(scenario.vips[0])
    failover = measure_failover(
        scenario.sim, lambda: scenario.faults.crash_host(owner.host), 5.0
    )
    assert failover.victim is None and failover.takeover is None
    assert failover.interruption is None
    assert failover.failover_episode().victim == owner.host.name


def test_fault_phase_is_a_pure_function_of_the_seed_inside_the_interval():
    draws = [fault_phase(seed) for seed in range(40)]
    assert draws == [fault_phase(seed) for seed in range(40)]
    assert all(0.0 <= draw < 1.0 for draw in draws)
    assert len(set(draws)) == 40


def test_a_table1_trial_sends_no_probe_request(monkeypatch):
    # Table 1 reads the GCS trace alone; `cli_cold` runs it, so it must
    # not gain the probe traffic the other §6 trials carry.
    built = []

    def capture(*args, **kwargs):
        built.append(runner.settled_cluster(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(table1, "settled_cluster", capture)
    experiment = table1.Table1Experiment(trials=1, cluster_size=2)
    assert experiment.measure_notification_times(SpreadConfig.tuned())
    (scenario,) = built
    assert scenario.probe is None
    totals = scenario.sim.metrics.totals()
    assert totals["workload.requests_served"] == 0
    assert "workload.probes_sent" not in totals

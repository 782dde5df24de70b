"""Whole-stack determinism: same seed, same history — always.

Every protocol decision, fault timing, and measurement in this
repository must be a pure function of the seed; otherwise regressions
hide behind run-to-run noise. These tests re-run complete scenarios
and compare fine-grained histories.
"""

from helpers import build_wack_cluster

from repro.apps.webcluster import WebClusterScenario
from repro.gcs.config import SpreadConfig
from repro.sim.rng import RngRegistry


def run_scenario(seed):
    scenario = WebClusterScenario(
        seed=seed,
        n_servers=4,
        n_vips=6,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 1.0, "balance_timeout": 2.0},
        trace_enabled=True,
    )
    scenario.start()
    assert scenario.run_until_stable(timeout=60.0)
    probe = scenario.start_probe()
    scenario.sim.run_for(1.0)
    fault_time = scenario.sim.now
    scenario.kill_owner_of(scenario.vips[0], mode="nic_down")
    scenario.sim.run_for(6.0)
    responses = [(round(r.time, 9), r.seq, r.server) for r in probe.responses]
    installs = [
        (round(record.time, 9), record.source)
        for record in scenario.sim.trace.select(category="membership", event="install")
    ]
    coverage = {vip: owners for vip, owners in scenario.coverage().items()}
    interruption = probe.failover_interruption(after=fault_time)
    return responses, installs, coverage, interruption


def test_identical_seed_reproduces_identical_history():
    first = run_scenario(seed=321)
    second = run_scenario(seed=321)
    assert first == second


def test_different_seeds_diverge():
    first = run_scenario(seed=321)
    second = run_scenario(seed=322)
    # Timings (heartbeat phases, fault offsets) must differ somewhere.
    assert first != second


def test_trace_event_counts_reproducible():
    def counts(seed):
        scenario = WebClusterScenario(
            seed=seed,
            n_servers=3,
            n_vips=4,
            spread_config=SpreadConfig.tuned(),
            wackamole_overrides={"maturity_timeout": 1.0},
        )
        scenario.start()
        assert scenario.run_until_stable(timeout=60.0)
        scenario.sim.run_for(5.0)
        return (
            scenario.sim.trace.count("membership"),
            scenario.sim.trace.count("wackamole"),
            scenario.sim.scheduler.events_fired,
        )

    assert counts(99) == counts(99)


def run_faulted_cluster(seed):
    """A cluster under a scripted FaultInjector schedule; full trace out."""
    cluster = build_wack_cluster(4, seed=seed, n_vips=6)
    nic = cluster.hosts[0].nics[0]
    sim = cluster.sim
    sim.at(3.0, cluster.faults.nic_down, nic)
    sim.at(6.0, cluster.faults.nic_up, nic)

    def partition():
        fault = cluster.faults.partition(cluster.lan, [cluster.hosts[:2]])
        sim.at(11.0, fault.undo)

    sim.at(8.0, partition)
    sim.at(14.0, cluster.faults.crash_host, cluster.hosts[3])
    cluster.sim.run_for(20.0)
    return [repr(record) for record in cluster.sim.trace.records]


def test_scheduled_faults_reproduce_identical_trace_streams():
    """Same seed, same *complete* trace stream — faults included.

    Stronger than the event-count check: every record (time, category,
    source, event, details) must match, so fault timing and every
    protocol reaction to it are pure functions of the seed.
    """
    first = run_faulted_cluster(seed=555)
    second = run_faulted_cluster(seed=555)
    assert len(first) > 100
    assert first == second


def test_scheduled_faults_diverge_across_seeds():
    assert run_faulted_cluster(seed=555) != run_faulted_cluster(seed=556)


def test_fork_registries_independent_of_parent_consumption_order():
    """fork() derives from the parent's *seed*, never its stream state.

    A campaign can therefore fork per-trial registries at any point —
    before or after the parent has drawn randomness, in any order —
    and every trial still sees the same world.
    """
    busy = RngRegistry(seed=7)
    busy.stream("lan").random()
    busy.stream("faults").random()
    busy.stream("lan").random()
    fresh = RngRegistry(seed=7)

    fork_from_busy = busy.fork("trial/0")
    fork_from_fresh = fresh.fork("trial/0")
    assert fork_from_busy.seed == fork_from_fresh.seed
    draws_busy = [fork_from_busy.stream("s").random() for _ in range(8)]
    draws_fresh = [fork_from_fresh.stream("s").random() for _ in range(8)]
    assert draws_busy == draws_fresh

    # Sibling forks are mutually independent too: consuming one does
    # not perturb the other.
    sibling = fresh.fork("trial/1")
    reference = sibling.stream("s").random()
    again = RngRegistry(seed=7).fork("trial/1")
    RngRegistry(seed=7).fork("trial/0").stream("s").random()
    assert again.stream("s").random() == reference

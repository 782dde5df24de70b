"""Parity of the scale cluster: live, serial, sharded and forked.

The merged run artifact — trace fingerprint, metrics totals, per-cell
summaries, convergence verdict — must be byte-identical for every
(shards, workers) choice, and to a live :class:`ScaleClusterScenario`
driven through the same script with ``sim.run``. Tier-1 pins it at n64
across the live world, the serial kernel, an in-process multi-world run
and the forked worker pool; the ``scale``-marked test re-proves it at
the n256 acceptance size.
"""

import pytest

from helpers import shared

from repro.apps.scalecluster import ScaleClusterScenario, ShardedScaleScenario
from repro.sim.shard.kernel import ShardedKernel
from repro.sim.shard.merge import artifact_bytes

N64 = dict(
    seed=7,
    n_hosts=64,
    n_vips=512,
    segment_size=16,
    horizon=8.0,
    kills=((3.0, 5),),
    revives=((5.0, 5),),
    flow_users=2000,
    trace_enabled=True,
    metrics_enabled=True,
)

#: The fault script's keys; the rest of a parameter dict builds a world.
SCRIPT = ("horizon", "kills", "revives")


def run_n64(shards, workers=0, **overrides):
    params = dict(N64)
    params.update(overrides)
    scenario = ShardedScaleScenario(shards=shards, workers=workers, **params)
    return scenario.run(), scenario


def run_live(params):
    """The script on a live world: faults placed with ``sim.at``, one ``sim.run``."""
    scenario = ScaleClusterScenario(
        **{key: value for key, value in params.items() if key not in SCRIPT}
    )
    for fault, script in ((scenario.kill, params["kills"]), (scenario.revive, params["revives"])):
        for time, index in sorted(script):
            scenario.sim.at(time, fault, index)
    scenario.start()
    scenario.sim.run(params["horizon"])
    return scenario.artifact(params["kills"], params["revives"])


def assert_sharded_and_forked_match(params, expected):
    """Four worlds in process, then four forked workers, give ``expected``."""
    assert artifact_bytes(ShardedScaleScenario(shards=4, **params).run()) == expected

    from repro.sim.shard.pool import fork_available

    if not fork_available():
        pytest.skip("fork start method unavailable")
    scenario = ShardedScaleScenario(shards=4, workers=4, **params)
    assert artifact_bytes(scenario.run()) == expected
    assert scenario.workers_used == 4


@pytest.fixture(scope="module")
def serial_n64():
    """The serial kernel's n64 artifact, the one every parity test compares with."""
    yield from shared(ShardedScaleScenario(shards=1, **N64).run())


def test_parity_serial_vs_sharded_vs_forked_n64(serial_n64):
    assert_sharded_and_forked_match(N64, artifact_bytes(serial_n64))
    assert serial_n64["converged"] is True
    assert serial_n64["n_live"] == 64  # victim revived before the horizon
    assert serial_n64["flow"]["offered"] > 0
    assert serial_n64["trace"]["records"] > 0


def test_parity_live_vs_serial_n64(serial_n64):
    assert artifact_bytes(run_live(N64)) == artifact_bytes(serial_n64)


def one_world_kernel():
    scenario = ShardedScaleScenario(
        n_hosts=64, n_vips=256, segment_size=16, trace_enabled=True, metrics_enabled=True
    )
    return ShardedKernel(scenario.plan, scenario.FACTORY, scenario.spec).start()


def ten_seconds_in(calls):
    kernel = one_world_kernel()
    for k in range(1, calls + 1):
        kernel.run(10.0 * k / calls)
    (world,) = kernel.collect()
    return world


@pytest.fixture(scope="module")
def one_call():
    """Ten simulated seconds in one call, which every split run must equal."""
    yield from shared(ten_seconds_in(1))


@pytest.mark.parametrize("calls", [1, 10, 100])
def test_a_run_split_into_calls_delivers_every_frame(calls, one_call):
    # A call only stops the world's clock: frames, trace and counters
    # are those of one call to the same time.
    world = ten_seconds_in(calls)
    assert world["now"] == 10.0
    assert world["metrics"]["net.frames_delivered"] > 0
    assert world == one_call


def test_live_faults_between_calls_run_clean():
    # Was: SchedulerError, the second call's first barrier computed from
    # next-event times read before the revival scheduled its boot.
    scenario = ScaleClusterScenario(n_hosts=64, n_vips=256, segment_size=16).start()
    scenario.sim.at(5.0, scenario.kill, 0)
    scenario.sim.run(8.0)
    scenario.revive(0)
    scenario.sim.run(12.0)
    assert scenario.sim.now == 12.0
    assert scenario.settle()


def test_artifact_is_a_pure_function_of_params(serial_n64):
    second, _ = run_n64(shards=1)
    assert artifact_bytes(serial_n64) == artifact_bytes(second)
    different_seed, _ = run_n64(shards=1, seed=8)
    assert artifact_bytes(serial_n64) != artifact_bytes(different_seed)


def test_artifact_meta_never_names_the_grouping():
    artifact, _ = run_n64(shards=2)
    assert "shards" not in artifact["meta"]
    assert "workers" not in artifact["meta"]
    assert artifact["meta"]["seed"] == 7


def test_kill_disturbs_only_the_victims_cell_bindings():
    # Segment scoping: a kill in cell 0 moves VIPs inside cell 0 only.
    # Other cells see the new global view but their scoped HRW
    # allocation — and therefore their bindings — is untouched.
    quiet, _ = run_n64(shards=1, kills=(), revives=())
    faulted, _ = run_n64(shards=1, revives=())  # kill host 5 (cell 0), no revive
    assert faulted["n_live"] == 63
    for cell in ("01", "02", "03"):
        assert (
            faulted["cells"][cell]["bindings_sha256"]
            == quiet["cells"][cell]["bindings_sha256"]
        )
    assert (
        faulted["cells"]["00"]["bindings_sha256"]
        != quiet["cells"]["00"]["bindings_sha256"]
    )
    assert faulted["cells"]["00"]["uncovered"] == 0


def test_validation_rejects_bad_parameters():
    with pytest.raises(TypeError):
        ShardedScaleScenario(no_such_param=1)
    with pytest.raises(TypeError):
        ShardedScaleScenario(**dict(N64, cells=(0,)))  # shards decides the cells
    with pytest.raises(ValueError):
        ShardedScaleScenario(**dict(N64, kills=((9.5, 5),)))  # past horizon
    with pytest.raises(ValueError):
        ShardedScaleScenario(**dict(N64, kills=((3.0, 64),)))  # index range
    with pytest.raises(ValueError):
        ShardedScaleScenario(**dict(N64, shards=5))  # > n_segments


def test_more_vips_than_the_address_plan_holds_is_rejected_at_construction():
    # It used to construct and die in a worker on "10.32.256.1".
    with pytest.raises(ValueError, match="VIP-address plan .at most 32000"):
        ShardedScaleScenario(**dict(N64, n_vips=32_001))
    ShardedScaleScenario(**dict(N64, n_vips=32_000))


@pytest.mark.scale
def test_parity_live_vs_sharded_n256_acceptance():
    params = dict(
        seed=11,
        n_hosts=256,
        n_vips=2048,
        segment_size=32,
        horizon=10.0,
        kills=((4.0, 17),),
        revives=((7.0, 17),),
        flow_users=100_000,
        trace_enabled=True,
        metrics_enabled=True,
    )
    serial = ShardedScaleScenario(shards=1, **params).run()
    expected = artifact_bytes(serial)
    assert artifact_bytes(run_live(params)) == expected
    assert_sharded_and_forked_match(params, expected)
    assert serial["converged"] is True

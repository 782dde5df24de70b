"""Serial-vs-sharded parity of the scale cluster (the tentpole claim).

The merged run artifact — trace fingerprint, metrics totals, per-cell
summaries, convergence verdict — must be byte-identical for every
(shards, workers) choice. Tier-1 pins it at n64 across the serial
kernel, an in-process multi-world run, and the forked worker pool; the
``scale``-marked test re-proves it at the n256 acceptance size.
"""

import pytest

from repro.apps.scalecluster import ShardedScaleScenario
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
    metrics_enabled=True,
)


def run_n64(shards, workers=0, **overrides):
    params = dict(N64)
    params.update(overrides)
    scenario = ShardedScaleScenario(shards=shards, workers=workers, **params)
    return scenario.run(), scenario


def test_parity_serial_vs_sharded_vs_forked_n64():
    serial, _ = run_n64(shards=1)
    sharded, _ = run_n64(shards=4)
    assert artifact_bytes(serial) == artifact_bytes(sharded)
    assert serial["converged"] is True
    assert serial["n_live"] == 64  # victim revived before the horizon
    assert serial["flow"]["offered"] > 0

    from repro.sim.shard.pool import fork_available

    if not fork_available():
        pytest.skip("fork start method unavailable")
    forked, scenario = run_n64(shards=4, workers=4)
    assert scenario.workers_used == 4
    assert artifact_bytes(serial) == artifact_bytes(forked)


def test_artifact_is_a_pure_function_of_params():
    first, _ = run_n64(shards=1)
    second, _ = run_n64(shards=1)
    assert artifact_bytes(first) == artifact_bytes(second)
    different_seed, _ = run_n64(shards=1, seed=8)
    assert artifact_bytes(first) != artifact_bytes(different_seed)


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
def test_parity_forked_n256_acceptance():
    params = dict(
        seed=11,
        n_hosts=256,
        n_vips=2048,
        segment_size=32,
        horizon=10.0,
        kills=((4.0, 17),),
        revives=((7.0, 17),),
        flow_users=100_000,
        trace_enabled=False,
    )
    serial = ShardedScaleScenario(shards=1, workers=0, **params).run()
    scenario = ShardedScaleScenario(shards=4, workers=4, **params)
    forked = scenario.run()
    assert artifact_bytes(serial) == artifact_bytes(forked)
    assert serial["converged"] is True
    if scenario.workers_used:
        assert scenario.workers_used == 4

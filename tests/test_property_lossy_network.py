"""Property tests under message loss.

The GCS must keep its guarantees on an unreliable LAN (retransmission
via resubmit/NACK, membership retries) and Wackamole's properties must
survive on top. Loss also provokes the false-positive failure
detections the paper warns aggressive tuning causes — which the
protocol must absorb as ordinary cascading view changes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_gcs_cluster, build_wack_cluster, settle_gcs, settle_wack

from repro.gcs.config import SpreadConfig
from repro.core.state import RUN

# Keep fault detection lenient relative to loss so clusters can settle.
LOSSY_CONFIG = dict(
    fault_detection_timeout=1.5,
    heartbeat_timeout=0.2,
    discovery_timeout=0.6,
)


@given(st.floats(0.0, 0.15), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_gcs_total_order_survives_loss(loss, seed):
    cluster = build_gcs_cluster(3, seed=seed, config=SpreadConfig.fast(**LOSSY_CONFIG))
    cluster.lan.loss = loss
    settle_gcs(cluster)
    settle_gcs(cluster)
    clients, logs = [], []
    for daemon in cluster.daemons:
        client = daemon.connect("app")
        log = []
        client.on_message = lambda m, log=log: log.append((m.view_id, m.payload))
        client.join("g")
        clients.append(client)
        logs.append(log)
    cluster.sim.run_for(1.0)
    for index in range(12):
        clients[index % 3].multicast("g", index)
    cluster.sim.run_for(10.0)
    cluster.lan.loss = 0.0
    cluster.sim.run_for(5.0)
    # Agreed delivery: per delivering view, identical ordered runs at
    # every member; no duplicates anywhere.
    for log in logs:
        payloads = [p for _, p in log]
        assert len(payloads) == len(set(payloads))
    # Members deliver per-view prefixes of one total order: group the
    # union by view and check each member's log is consistent with it.
    for view_id in {v for log in logs for v, _ in log}:
        runs = [
            [p for v, p in log if v == view_id]
            for log in logs
        ]
        longest = max(runs, key=len)
        for run in runs:
            assert run == longest[: len(run)]


@given(st.floats(0.0, 0.10), st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_wackamole_properties_survive_loss(loss, seed):
    cluster = build_wack_cluster(
        3,
        seed=seed,
        n_vips=4,
        config=SpreadConfig.fast(**LOSSY_CONFIG),
        wack_overrides={"maturity_timeout": 0.5, "balance_enabled": False},
    )
    cluster.lan.loss = loss
    cluster.sim.run_for(20.0)
    cluster.faults.crash_host(cluster.hosts[0])
    cluster.sim.run_for(10.0)
    cluster.lan.loss = 0.0
    assert settle_wack(cluster, timeout=40.0)
    live = [w for w in cluster.wacks if w.alive]
    assert all(w.machine.state == RUN and w.mature for w in live)
    assert cluster.auditor.check() == []

"""Virtual Synchrony tests — the guarantee the correctness proof uses.

"Any two servers that advance together from one membership to the next
one will deliver an identical set of messages in the first membership"
(§3.1), with Agreed delivery putting those sets in the same order.
"""

from helpers import build_gcs_cluster, settle_gcs


def connect_all(cluster, group="g"):
    clients, logs = [], []
    for daemon in cluster.daemons:
        client = daemon.connect("app")
        log = []
        # Record messages with the view they were delivered in, plus
        # membership changes, so per-view sets can be compared.
        client.on_message = lambda m, log=log: log.append(("msg", m.view_id, m.payload))
        client.on_group_view = lambda v, log=log: log.append(("view", v.members))
        client.join(group)
        clients.append(client)
        logs.append(log)
    cluster.sim.run_for(0.5)
    return clients, logs


def per_view_messages(log):
    """Split a client's log into message runs between view changes."""
    runs = []
    current = []
    for entry in log:
        if entry[0] == "view":
            runs.append(tuple(current))
            current = []
        else:
            current.append(entry[1:])
    runs.append(tuple(current))
    return runs


def test_messages_in_flight_at_view_change_delivered_consistently():
    cluster = settle_gcs(build_gcs_cluster(4))
    clients, logs = connect_all(cluster)
    # Blast messages continuously while a member crashes.
    def send_burst(index=0):
        if index < 200:
            clients[index % 3].multicast("g", index)
            cluster.sim.after(0.005, send_burst, index + 1)

    send_burst()
    cluster.sim.after(0.2, cluster.faults.crash_host, cluster.hosts[3])
    settle_gcs(cluster)
    cluster.sim.run_for(3.0)
    # The three survivors advanced together: identical logs throughout.
    survivor_logs = logs[:3]
    assert survivor_logs[0] == survivor_logs[1] == survivor_logs[2]
    # Per-sender FIFO: each client's messages appear in send order
    # (cross-sender interleaving is free under agreed delivery).
    payloads = [entry[2] for entry in survivor_logs[0] if entry[0] == "msg"]
    for sender in range(3):
        run = [p for p in payloads if p % 3 == sender]
        assert run == sorted(run)


def test_old_view_messages_delivered_before_new_view_notification():
    cluster = settle_gcs(build_gcs_cluster(3))
    clients, logs = connect_all(cluster)
    for log in logs:
        log.clear()
    clients[0].multicast("g", "pre-change")
    # Crash immediately after: the message races the view change.
    cluster.faults.crash_host(cluster.hosts[2])
    settle_gcs(cluster)
    for log in logs[:2]:
        kinds = [entry[0] for entry in log]
        if "msg" in kinds:
            # Every message precedes the (single) view notification.
            assert kinds.index("view") > max(
                i for i, k in enumerate(kinds) if k == "msg"
            )
    assert logs[0] == logs[1]


def test_survivors_of_partition_share_per_view_sets():
    cluster = settle_gcs(build_gcs_cluster(4))
    clients, logs = connect_all(cluster)
    for round_index in range(20):
        clients[round_index % 4].multicast("g", round_index)
    cluster.sim.after(
        0.05, cluster.faults.partition, cluster.lan,
        [cluster.hosts[:2], cluster.hosts[2:]],
    )
    settle_gcs(cluster)
    cluster.sim.run_for(2.0)
    # Pairs that advanced together must agree on every per-view run.
    assert per_view_messages(logs[0]) == per_view_messages(logs[1])
    assert per_view_messages(logs[2]) == per_view_messages(logs[3])


def test_agreed_order_holds_across_merges():
    cluster = settle_gcs(build_gcs_cluster(4))
    clients, logs = connect_all(cluster)
    partition = cluster.faults.partition(cluster.lan, [cluster.hosts[:2], cluster.hosts[2:]])
    settle_gcs(cluster)
    clients[0].multicast("g", "side-a")
    clients[2].multicast("g", "side-b")
    cluster.sim.run_for(1.0)
    partition.undo()
    settle_gcs(cluster)
    for index, client in enumerate(clients):
        client.multicast("g", "merged-{}".format(index))
    cluster.sim.run_for(2.0)
    # After the merge, all four see the merged-view messages identically.
    merged = [
        [entry for entry in log if entry[0] == "msg" and str(entry[2]).startswith("merged")]
        for log in logs
    ]
    assert merged[0] == merged[1] == merged[2] == merged[3]
    assert len(merged[0]) == 4


def test_no_message_delivered_twice():
    cluster = settle_gcs(build_gcs_cluster(3))
    clients, logs = connect_all(cluster)
    for index in range(30):
        clients[index % 3].multicast("g", index)
    cluster.sim.after(0.05, cluster.faults.crash_host, cluster.hosts[2])
    settle_gcs(cluster)
    cluster.sim.run_for(2.0)
    for log in logs[:2]:
        payloads = [entry[2] for entry in log if entry[0] == "msg"]
        assert len(payloads) == len(set(payloads))

"""The three kernel tripwire workloads of ``repro bench``.

Each is a pure simulation run — deterministic, seeded, free of
wall-clock reads — of a hot path no system-benchmark workload isolates:
the scheduler's schedule/fire loop, refresh-heavy timers, and one LAN
broadcast fan-out. The timing loop lives in :mod:`repro.bench.runner`;
this module only defines *what* work a bench performs, at one fixed
size, and how many units of it were done.

:data:`BENCHES` maps a bench name to ``(run, unit)``: ``run()`` builds
and executes the workload once and returns the number of ``unit``\\ s
processed.

Everything larger is measured by ``sysbench/`` (``BENCHMARK.json``),
which times it end to end and says where the time went. The benches
that used to live here, and the workload that covers each:

* ``campaign_serial``, ``campaign_parallel``, ``burst_loss_failover``,
  ``stabilize_after_corruption`` — ``campaign_mixed`` (standard, gray
  and corrupt trials in turn);
* ``failover_trial`` — ``cli_cold``'s ``table1`` op and ``ring_n32``'s
  fault ops;
* ``flow_engine_ticks``, ``kernel_serial_n256``,
  ``membership_change_n256`` — ``flow_1m_n256``;
* ``kernel_sharded_n256`` — ``shard_n256_w2``;
* ``balance_n1024`` — ``scale_n1024``'s ``setup_s`` (the HRW table is
  built at boot);
* ``lint_full_project`` — ``cli_cold``'s ``analysis.lint_s`` and the
  ``timeout 20`` on CI's lint step.
"""

from repro.net.host import Host
from repro.net.lan import Lan
from repro.sim.scheduler import Scheduler
from repro.sim.simulation import Simulation
from repro.sim.timers import PeriodicTimer, Timer


def kernel_events():
    """Raw event throughput: one-shot callbacks through the scheduler."""
    scheduler = Scheduler()
    after = scheduler.after
    for index in range(40_000):
        after(index * 0.001, _noop)
    scheduler.run()
    return scheduler.events_fired


def kernel_timer_churn():
    """Schedule/cancel-heavy workload mirroring GCS heartbeat refreshes.

    32 fault-detection timeouts (3 s deadline) are refreshed every
    50 ms for 120 simulated seconds — the `heard_from` pattern — so
    nearly every deadline is moved long before it fires. A few periodic
    heartbeat timers tick alongside. Units are scheduler operations
    (timer (re)starts + events fired).
    """
    n_timers = 32
    timeout = 3.0
    scheduler = Scheduler()
    fired = [0]

    def on_timeout():
        fired[0] += 1

    timers = [Timer(scheduler, on_timeout) for _ in range(n_timers)]
    beats = [PeriodicTimer(scheduler, on_timeout, 0.5) for _ in range(4)]
    for beat in beats:
        beat.start()
    restarts = [0]

    def refresh():
        for timer in timers:
            timer.start(timeout)
        restarts[0] += n_timers

    refresher = PeriodicTimer(scheduler, refresh, 0.05)
    refresher.start(first_delay=0.0)
    scheduler.run(until=120.0)
    refresher.stop()
    for beat in beats:
        beat.stop()
    for timer in timers:
        timer.cancel()
    return restarts[0] + scheduler.events_fired


def lan_fanout():
    """Per-frame LAN broadcast fan-out with the full UDP receive path."""
    n_hosts = 10
    sim = Simulation(seed=0, trace_enabled=False)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    hosts = []
    for index in range(n_hosts):
        host = Host(sim, "h{}".format(index))
        host.add_nic(lan, "10.0.0.{}".format(1 + index))
        host.open_udp(100, _udp_sink)
        hosts.append(host)
    for round_index in range(200):
        hosts[round_index % n_hosts].send_udp(
            round_index, "10.0.0.255", 100, src_port=1
        )
        sim.run_until_idle()
    return lan.frames_delivered


def _noop():
    return None


def _udp_sink(payload, src, dst):
    return None


BENCHES = {
    "kernel_events": (kernel_events, "events"),
    "kernel_timer_churn": (kernel_timer_churn, "events"),
    "lan_fanout": (lan_fanout, "frames"),
}

"""Gray-failure hardening: the two tables of EXPERIMENTS.md's gray section.

Beyond the paper's fail-stop model (docs/FAULTS.md). Every row is a
``repro.stabilization.PROFILES`` row or a ``_replace`` variant of one,
so a change to a profile's values moves these numbers.

* **ARP cache repair through a loss burst.** The owner acquires a VIP
  while the segment's Gilbert–Elliott channel is in its BAD state (95%
  loss, mean burst 10 frames); the client's cache holds a stale MAC.
  Per row, how many of 200 seeded trials repoint the cache within 10 s,
  and the median time of the repoint.
* **K-miss suspicion vs a slow-but-alive host.** Spurious suspicions in
  a healthy 3-server cluster (fd 0.5 s, hb 0.2 s) over 20 simulated
  seconds while one host's timers run slow, at K=1 (``paper``) and K=2
  (``hardened``).
"""

import math
import statistics

from helpers import build_arp_segment, build_wack_cluster, settle_wack

from repro.net.linkfault import GilbertElliott
from repro.net.nic import allocate_mac
from repro.obs.dashboard import format_table
from repro.stabilization import PROFILES

TRIALS = 200
WINDOW = 10.0
#: The cache is read every POLL seconds; no two announce attempts of any
#: row fall in one poll, so the entry's timestamp at the first read that
#: sees the new owner is the repoint time itself.
POLL = 0.05

HARDENED = PROFILES["hardened"]
ANNOUNCE_ROWS = [
    ("Single-shot (paper behaviour)", "`paper`", PROFILES["paper"]),
    ("+ 2 retries, 0.3 s backoff", "ablation", HARDENED._replace(arp_reannounce_interval=0.0)),
    ("+ periodic re-announce (2 s)", "`hardened`", HARDENED),
    ("+ periodic re-announce (1 s)", "ablation", HARDENED._replace(arp_reannounce_interval=1.0)),
]
SLOWDOWNS = (2.0, 2.5, 3.0)


def _repoint_time(profile, seed):
    """Seconds from acquisition to the client's repointed cache, or None."""
    sim, lan, owner, client, manager, vip = build_arp_segment(seed, profile=profile)
    client.arp.cache.store(vip, allocate_mac(sim))
    burst = GilbertElliott(p_bad_to_good=0.1, loss_bad=0.95)
    burst.bad = True
    lan.add_link_model(burst)
    manager.acquire(vip)
    # The daemon's periodic pass, without a daemon.
    interval = profile.arp_reannounce_interval
    for tick in range(1, math.ceil(WINDOW / interval) if interval else 0):
        sim.at(tick * interval, manager.reannounce_all)
    mac = owner.nics[0].mac
    for step in range(1, int(round(WINDOW / POLL)) + 1):
        sim.run(until=step * POLL)
        if client.arp.cache.lookup(vip) == mac:
            return client.arp.cache.peek(vip).updated_at
    return None


def _spurious_suspicions(profile, slowdown):
    cluster = build_wack_cluster(3, seed=19, n_vips=6, profile=profile)
    assert settle_wack(cluster, timeout=30.0)
    before = sum(daemon.fd.suspicions for daemon in cluster.spreads)
    cluster.faults.slow_host(cluster.hosts[0], slowdown)
    cluster.sim.run_for(20.0)
    return sum(daemon.fd.suspicions for daemon in cluster.spreads) - before


def bench_arp_repair_through_a_loss_burst(benchmark, paper_report):
    def run():
        return [
            [t for t in (_repoint_time(row, seed) for seed in range(TRIALS)) if t is not None]
            for _, _, row in ANNOUNCE_ROWS
        ]

    repaired = benchmark.pedantic(run, rounds=1, iterations=1)
    single, retries, hardened, every_second = (len(times) for times in repaired)
    # Each defence converges more trials than the one it adds to.
    assert single < retries < hardened
    assert retries < every_second
    rows = []
    for (strategy, profile, _), times in zip(ANNOUNCE_ROWS, repaired):
        benchmark.extra_info[strategy] = len(times)
        median = "{:.4f}".format(statistics.median(times)) if times else "-"
        rows.append([strategy, profile, "{}/{}".format(len(times), TRIALS), median])
    paper_report(
        format_table(
            ["Announce strategy", "Profile", "Converged", "Median (s)"],
            rows,
            title="ARP cache repair through a loss burst ({} seeds, {:g} s window)".format(
                TRIALS, WINDOW
            ),
        )
    )


def bench_k_miss_suspicion_vs_a_slow_host(benchmark, paper_report):
    def run():
        return {
            slowdown: [_spurious_suspicions(p, slowdown) for p in ("paper", "hardened")]
            for slowdown in SLOWDOWNS
        }

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    # One extra heartbeat of grace absorbs every miss K=1 turns into a
    # suspicion once the slow heartbeat reaches the deadline (2.5x).
    assert all(k2 == 0 for _, k2 in counts.values())
    assert counts[2.5][0] > 0 and counts[3.0][0] > 0
    for slowdown, (k1, _) in counts.items():
        benchmark.extra_info["K=1 at {}x".format(slowdown)] = k1
    paper_report(
        format_table(
            ["Slowdown", "K=1 (`paper`)", "K=2 (`hardened`)"],
            [["{}x".format(s), k1, k2] for s, (k1, k2) in counts.items()],
            title="Spurious suspicions over 20 s, one slow host of 3",
        )
    )

#!/usr/bin/env python3
"""The observability layer end to end: metrics, episodes, dashboard.

Runs one instrumented fail-over (the quickstart cluster with a crash
against the probed address's owner), then renders the three views the
``repro.obs`` subsystem provides:

* the metric catalog across every layer (sim / net / gcs / core /
  workload), with time-weighted summaries for the queue-depth and
  VIP-coverage series;
* the fail-over episode table with per-phase durations (detection,
  membership, gather, ARP, client recovery);
* the JSON-lines export — byte-identical across replays of the same
  seed (`python -m repro observe --format jsonl` twice and `cmp`).

Run:  python examples/metrics_dashboard.py
"""

from repro.obs.dashboard import jsonl_observation, render_observation
from repro.obs.observe import run_observation


def main():
    result, coverage = run_observation(seed=7, fault="crash")
    print(render_observation(result, 7, "crash"))

    episode = result.failover_episode()
    print("phase durations of the fault episode:")
    for phase, duration in episode.phase_durations().items():
        print(
            "  {:<16} {}".format(
                phase, "-" if duration is None else "{:7.1f} ms".format(duration * 1e3)
            )
        )

    print("\ncoverage over time (as the coverage engine recorded it at every change):")
    dip = coverage.coverage_dip()
    if dip is not None:
        start, end, depth = dip
        print(
            "  coverage dipped by {} VIP(s) between t={:.2f}s and t={:.2f}s".format(
                depth, start, end
            )
        )
    else:
        print("  coverage never dipped")

    lines = jsonl_observation(result, 7, "crash").splitlines()
    print("\nJSON-lines export: {} records; first two:".format(len(lines)))
    for line in lines[:2]:
        print("  {}".format(line))


if __name__ == "__main__":
    main()

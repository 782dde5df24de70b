"""Frozen sizes of the workloads — readable without importing ``repro``.

``cycle``: a run stops only at a multiple of this many ops, so every
run holds the same mix of cheap and expensive ops. ``digest_ops``: the
prefix ``sim_digest`` covers (and ``--verify`` runs). ``trace_ops``:
ops of the traced run per 10 s of ``--seconds`` (a fixed count, so the
exact counts repeat). ``setups``: set-ups per run; ``setup_s`` is their
median. ``rss_ops``: ``peak_rss_mb`` is the peak up to the end of this
op, because trace and ledgers grow with the ops a run gets through (and
the scale tier allocates 110 MB at simulated second 60, op 59); a run
never stops before it.
``sampled``: host speed is sampled by a thread *during* the ops rather
than probed between them (``sysbench/calibrate.py``).
"""

WORKLOADS = {
    "ring_n32": {
        "rss_ops": 100,
        "cycle": 10,
        "digest_ops": 20,
        "trace_ops": 80,
        "setups": 7,
        "why": "faithful ring stack, 32 servers/48 VIPs, NIC faults: O(N^2) broadcast "
        "fan-out loads net and ring gcs; trace+metrics on; flow resolves through ARP",
    },
    "campaign_mixed": {
        "rss_ops": 45,
        "cycle": 3,
        "digest_ops": 21,
        "trace_ops": 24,
        "setups": 9,
        "why": "repro check trials in-process (standard, gray, corrupt; 5 servers): "
        "per-trial build, obs extraction, check auditing and core weigh most",
    },
    "scale_n1024": {
        "rss_ops": 60,
        "cycle": 10,
        "digest_ops": 20,
        "trace_ops": 20,
        "setups": 3,
        "why": "1024 hosts/4096 VIPs on segments+HRW: set-up is the n1024 boot storm, an op is "
        "wall per simulated second; unicast net and gcs.segments, no ring, no ARP",
    },
    "flow_1m_n256": {
        "rss_ops": 60,
        "cycle": 10,
        "digest_ops": 20,
        "trace_ops": 20,
        "setups": 7,
        "why": "10^6 users in 2048 pools over 256 hosts: the one workload where flow and the "
        "direct resolver do the work, so a flow change shows here and nowhere else",
    },
    "shard_n256_w2": {
        "sampled": True,
        "rss_ops": 2,
        "cycle": 1,
        "digest_ops": 2,
        "trace_ops": 1,
        "setups": 9,
        "why": "the only place sim.shard runs (epoch barriers, envelope pickling, trace merge), "
        "2 forked workers; a non-shard change moves it by the serial share only",
    },
    "cli_cold": {
        "rss_ops": 10,
        "cycle": 5,
        "digest_ops": 5,
        "trace_ops": 5,
        "setups": 7,
        "why": "cold python -m repro for five commands: import time is most of a short "
        "command; the only workload touching cli, experiments and analysis",
    },
}

NAMES = tuple(WORKLOADS)

#: The layers of the per-layer metrics: the program's packages, with the
#: two modules that are a design of their own split out.
LAYERS = (
    "sim",
    "sim.shard",
    "net",
    "gcs",
    "gcs.segments",
    "core",
    "flow",
    "obs",
    "check",
    "apps",
    "experiments",
    "analysis",
    "cli",
)

#: Exact counts read from the program's own public counters.
COUNTS = (
    "sim.events_fired",
    "sim.trace_records",
    "net.frames_sent",
    "net.frames_delivered",
    "net.broadcasts",
    "net.frames_lost",
    "gcs.messages_sent",
    "gcs.messages_delivered",
    "gcs.heartbeats_sent",
    "gcs.gathers_started",
    "gcs.views_installed",
    "gcs.seg_messages_sent",
    "gcs.seg_views_adopted",
    "core.vip_acquisitions",
    "core.vip_releases",
    "core.reallocations",
    "core.balances_sent",
    "flow.ticks",
    "flow.requests_offered",
    "flow.requests_served",
    "flow.requests_lost",
    "obs.episodes",
    "check.trials",
    "sim.shard.epochs",
    "sim.shard.artifact_bytes",
)

#: Wall seconds timed directly around public calls, in the untraced run.
TIMINGS = (
    "apps.build_s",
    "apps.boot_s",
    "check.spec_build_s",
    "check.run_trial_s",
    "cli.import_s",
    "cli.help_s",
    "analysis.lint_s",
)

"""The only file of the benchmark that knows the ``repro`` package.

Everything the workloads need from the program goes through here, so
the surface a refactor of ``repro`` must keep (or alias) is this file's
imports and the attribute reads below — ``sysbench/README.md`` lists
them. Layer attribution goes by *file path* (:func:`layer_of_path`),
never by function name, so a rename inside a package cannot break the
trace.
"""

import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.apps.scalecluster import ScaleClusterScenario, ShardedScaleScenario  # noqa: E402
from repro.apps.webcluster import WebClusterScenario  # noqa: E402
from repro.check import build_trial_spec, campaign_params, run_trial  # noqa: E402
from repro.core.state import RUN  # noqa: E402
from repro.gcs.config import SpreadConfig  # noqa: E402
from repro.net.partition import DEFAULT_INTER_LATENCY  # noqa: E402
from repro.obs.episodes import episodes_as_dicts  # noqa: E402
from repro.sim.shard.merge import artifact_bytes  # noqa: E402

# Top-level modules and packages that are not a layer of their own
# (``spec.LAYERS``), folded into the layer they serve.
_TOP_LEVEL = {
    "__init__.py": "cli",
    "__main__.py": "cli",
    "cli.py": "cli",
    "stabilization.py": "core",
    "baselines": "experiments",
    "bench": "experiments",
}

SYSBENCH = os.path.dirname(os.path.abspath(__file__))


def layer_of_path(path):
    """The layer a source file belongs to; ``None`` for foreign code.

    Files of the benchmark itself are the ``harness`` layer; builtins,
    the standard library and numpy belong to no layer (the fold charges
    them to their caller).
    """
    if path.startswith(SYSBENCH + os.sep):
        return "harness"
    if not path.startswith(PACKAGE + os.sep):
        return None
    parts = path[len(PACKAGE) + 1:].split(os.sep)
    head = parts[0]
    if head == "sim" and len(parts) > 2 and parts[1] == "shard":
        return "sim.shard"
    if head == "gcs" and parts[1] == "segments.py":
        return "gcs.segments"
    return _TOP_LEVEL.get(head, head)


def _cluster_counters(sim):
    """Exact counts from the program's own public counters."""
    counts = dict(sim.metrics.totals())
    counts["sim.events_fired"] = sim.scheduler.events_fired
    counts["sim.trace_records"] = len(sim.trace.records)
    return counts


class RingCluster:
    """The faithful stack: Spread ring + Wackamole + ARP, one LAN."""

    def __init__(self, seed, n_servers, n_vips, flow_users):
        # Trace and metrics are left at their defaults (on): that is
        # what a user of WebClusterScenario gets.
        self.scenario = WebClusterScenario(
            seed=seed,
            n_servers=n_servers,
            n_vips=n_vips,
            spread_config=SpreadConfig.tuned(),
            flow_users=flow_users,
        )
        self.link = {"lan_latency_s": self.scenario.lan.latency}
        self.victim = None

    def boot(self):
        scenario = self.scenario
        scenario.start()
        if not scenario.run_until_stable():
            raise RuntimeError("ring cluster never stabilised")
        scenario.start_probe(scenario.vips[0])

    def fault_down(self, target):
        """The paper's section 6 fault: unplug the owner of VIP ``target``."""
        scenario = self.scenario
        self.victim = scenario.kill_owner_of(scenario.vips[target % len(scenario.vips)])

    def fault_up(self):
        scenario = self.scenario
        scenario.faults.nic_up(self.victim.host.nic_on(scenario.lan))

    def step(self, seconds):
        self.scenario.sim.run_for(seconds)

    def healthy(self):
        scenario = self.scenario
        live = [wack for wack in scenario.wacks if wack.alive]
        return (
            bool(live)
            and all(wack.machine.state == RUN and wack.mature for wack in live)
            and not scenario.auditor.check()
        )

    def probe_gaps(self):
        """Client-visible interruptions (simulated s) seen by the 10 ms probe."""
        probe = self.scenario.probe
        times = [response.time for response in probe.responses]
        threshold = 5 * probe.interval
        return [
            round(later - earlier, 6)
            for earlier, later in zip(times, times[1:])
            if later - earlier > threshold
        ]

    def state(self):
        """Deterministic simulated outputs, for ``sim_digest``."""
        scenario = self.scenario
        return {
            "time": round(scenario.sim.now, 9),
            "coverage": scenario.coverage(),
            "flow": scenario.flow_engine.totals(),
            "probe_gaps": self.probe_gaps(),
        }

    def counters(self):
        counts = _cluster_counters(self.scenario.sim)
        counts["obs.episodes"] = len(episodes_as_dicts(self.scenario.sim.trace.records))
        return counts


class ScaleCluster:
    """The scale stack: segmented membership + rendezvous placement."""

    def __init__(self, seed, n_hosts, n_vips, segment_size, flow_users, counted):
        # Scale defaults leave trace and metrics off; only the traced
        # run switches the counters on.
        self.scenario = ScaleClusterScenario(
            seed=seed,
            n_hosts=n_hosts,
            n_vips=n_vips,
            segment_size=segment_size,
            flow_users=flow_users,
            metrics_enabled=counted,
        )
        self.link = {"lan_latency_s": self.scenario.lan.latency}
        self.n_hosts = n_hosts
        self.victim = None

    def boot(self):
        self.scenario.start()
        if not self.scenario.settle():
            raise RuntimeError("scale cluster never settled")

    def fault_down(self, target):
        self.victim = target % self.n_hosts
        self.scenario.kill(self.victim)

    def fault_up(self):
        self.scenario.revive(self.victim)

    def step(self, seconds):
        self.scenario.sim.run_for(seconds)

    def probe_gaps(self):
        return []  # no clients are modelled at this tier

    def ledger(self):
        engine = self.scenario.flow_engine
        return engine.totals() if engine is not None else None

    def healthy(self):
        if not self.scenario.converged():
            return False
        ledger = self.ledger()
        return ledger is None or ledger["served"] + ledger["lost"] == ledger["offered"]

    def state(self):
        fingerprint = self.scenario.fingerprint()
        bindings = ";".join("{}={}".format(vip, name) for vip, name in fingerprint["bindings"])
        return {
            "time": fingerprint["time"],
            "views": fingerprint["views"],
            "bindings_sha256": hashlib.sha256(bindings.encode("utf-8")).hexdigest(),
            "flow": self.ledger(),
        }

    def counters(self):
        return _cluster_counters(self.scenario.sim)


CAMPAIGN_KINDS = ({}, {"gray": True}, {"corrupt": True})


class Campaign:
    """``repro check`` trials in-process: spec build, then run."""

    def __init__(self, base_seed, trials, n_servers, n_vips, horizon, events):
        self.params = [
            campaign_params(
                base_seed=base_seed,
                trials=trials,
                n_servers=n_servers,
                n_vips=n_vips,
                horizon=horizon,
                events_per_trial=events,
                **kind
            )
            for kind in CAMPAIGN_KINDS
        ]
        self.spec_build_s = 0.0
        self.run_trial_s = 0.0
        self.counts = {"check.trials": 0, "obs.episodes": 0}

    def trial(self, kind, index):
        """Run trial ``index`` of repertoire ``kind``; returns (ok, outputs)."""
        started = time.perf_counter()
        spec = build_trial_spec(self.params[kind], index)
        built = time.perf_counter()
        result = run_trial(spec)
        self.spec_build_s += built - started
        self.run_trial_s += time.perf_counter() - built
        counts = self.counts
        counts["check.trials"] += 1
        counts["obs.episodes"] += len(result["episodes"])
        counts["sim.events_fired"] = counts.get("sim.events_fired", 0) + result.get(
            "events_fired", 0
        )
        for name, value in result["metrics"].items():
            if name != "sim.events_fired":
                counts[name] = counts.get(name, 0) + value
        outputs = {
            key: result.get(key)
            for key in ("verdict", "sim_time", "episodes", "fault_log", "degraded",
                        "stabilization")
        }
        return result["verdict"] == "pass", outputs


class ShardedRun:
    """One whole sharded scenario: fork, build worlds, run, merge."""

    link = {"inter_segment_latency_s": DEFAULT_INTER_LATENCY}

    def __init__(self, seed, workers, shards, **params):
        self.scenario = ShardedScaleScenario(
            workers=workers,
            shards=shards,
            seed=seed,
            trace_enabled=True,
            metrics_enabled=True,
            **params
        )

    def run(self):
        """Returns (converged, outputs, counts, sha256 of the artifact bytes)."""
        artifact = self.scenario.run()
        payload = artifact_bytes(artifact)
        # ``events_fired`` (top level and the ``sim.`` counter) is kept
        # out of the digest: a batched timer wheel may change it.
        outputs = {
            key: artifact[key]
            for key in ("converged", "views", "n_live", "cells", "flow", "trace", "sim_time")
        }
        counts = dict(artifact["metrics"])
        counts["sim.events_fired"] = artifact["events_fired"]
        counts["sim.trace_records"] = artifact["trace"]["records"]
        counts["sim.shard.epochs"] = self.scenario.epochs
        counts["sim.shard.artifact_bytes"] = len(payload)
        return bool(artifact["converged"]), outputs, counts, hashlib.sha256(payload).hexdigest()


#: The five command lines of ``cli_cold``. ``{seed}`` is the run's seed
#: folded onto 0..15: all sixteen campaigns pass, while at an arbitrary
#: seed about one ``check`` trial in 800 ends in ``violation``.
CLI_LINES = (
    "table1",
    "observe --fault crash --settle 6 --duration 6 --format jsonl",
    "flow --users 1000000 --fault nic_down --format json",
    "check --trials 4 --workers 1 --servers 5 --vips 10 --horizon 60 --events 12 --seed {seed}",
    "lint src/repro/gcs --format json",
)
CLI_HELP_LINE = "check --help"
CLI_IMPORT = "import repro.cli"


def cli_command(line, seed, profile_to=None):
    """argv for one ``python -m repro`` invocation (run from ROOT)."""
    args = line.format(seed=seed % 16).split()
    if profile_to is not None:
        return [sys.executable, "-m", "sysbench.cliprofile", profile_to, "repro"] + args
    return [sys.executable, "-m", "repro"] + args


def cli_import_command():
    return [sys.executable, "-c", CLI_IMPORT]

"""The six workloads: sizes, fault scripts, checks, and why each exists.

A workload is a closed loop with one client: the driver calls
``op(i)`` and issues the next operation only when the last returned.
Sizes are frozen — a change of size is a change of benchmark, and the
baseline is measured again after it.

Long-lived-cluster workloads advance the simulation one simulated
second per op, with a fault injected at the start of ops ``i % 10 == 2``
(down) and ``i % 10 == 7`` (up / revive): 20 % of ops carry membership
work, so ``op_ms_p50`` sits in the fault-free population and
``op_ms_p90`` in the reconvergence population. A run stops only at a
multiple of ``cycle`` ops, so every run holds the same mix.
"""

import contextlib
import json
import os
import random
import subprocess
import time

from sysbench import adapters
from sysbench.stats import median


class Spans:
    """Harness-level spans, kept in memory until the run ends."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.records = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()


class Workload:
    """What the driver calls; subclasses fill in ``setup`` and ``op``."""

    #: Profile files written by child processes (traced ``cli_cold`` only).
    child_profiles = None
    #: Wall seconds timed directly around public calls.
    timings = {}

    def __init__(self):
        self.log = []
        self._last = None

    def observe(self, index):
        """Keep op ``index``'s outputs for ``sim_digest`` (outside the timed region)."""
        self.log.append(self._last)

    def outputs(self):
        return self.log

    def finish(self, ops):
        """End-of-run check; a failure counts as one failed op."""
        return True

    def counters(self):
        return {}

    def extras(self):
        return {}


class ClusterWorkload(Workload):
    """One long-lived cluster, one simulated second per op."""

    def __init__(self, name, build, target, final_check=None):
        super().__init__()
        self.name = name
        self._build = build
        self._target = target
        self._final_check = final_check
        self.cluster = None

    def setup(self, seed, spans, traced):
        started = time.perf_counter()
        with spans.span("build"):
            self.cluster = self._build(seed, traced)
        built = time.perf_counter()
        with spans.span("boot"):
            self.cluster.boot()
        self.timings = {
            "apps.build_s": built - started,
            "apps.boot_s": time.perf_counter() - built,
        }

    def op(self, index, spans):
        phase = index % 10
        if phase == 2:
            self.cluster.fault_down(self._target(index // 10))
        elif phase == 7:
            self.cluster.fault_up()
        self.cluster.step(1.0)
        if index % 5 != 1:
            return True
        with spans.span("checkpoint"):
            return self.cluster.healthy()

    def observe(self, index):
        # Every op of the prefix, so the digest also sees the cluster in
        # the middle of reconvergence, where the seed's timer phases show.
        self.log.append(self.cluster.state())

    def finish(self, ops):
        return self._final_check is None or self._final_check(self.cluster, ops)

    def counters(self):
        return self.cluster.counters()

    def extras(self):
        return {"link": self.cluster.link, "probe_gaps": self.cluster.probe_gaps()}


# The campaign trials come from a fixed pool (40 per repertoire at this
# base seed, every one verified to pass) and ``--seed`` only draws the
# order: at an arbitrary base seed about one trial in 800 ends in
# ``violation`` (a finding for ROADMAP item 4, not a benchmark input),
# and the schedule mix moves the median trial cost by 13 % from seed to
# seed, which would drown the bound.
CAMPAIGN_POOL_SEED = 2004
CAMPAIGN_POOL_TRIALS = 40


class CampaignWorkload(Workload):
    """``repro check`` trials in-process, three repertoires in turn."""

    name = "campaign_mixed"

    def __init__(self):
        super().__init__()
        self.campaign = None
        self.order = None

    def setup(self, seed, spans, traced):
        with spans.span("build"):
            self.campaign = adapters.Campaign(
                CAMPAIGN_POOL_SEED,
                CAMPAIGN_POOL_TRIALS,
                n_servers=5,
                n_vips=10,
                horizon=60,
                events=12,
            )
        rng = random.Random(seed)
        self.order = [
            rng.sample(range(CAMPAIGN_POOL_TRIALS), CAMPAIGN_POOL_TRIALS)
            for _ in adapters.CAMPAIGN_KINDS
        ]

    def op(self, index, spans):
        kind = index % 3
        trial = self.order[kind][(index // 3) % CAMPAIGN_POOL_TRIALS]
        ok, self._last = self.campaign.trial(kind, trial)
        return ok

    def counters(self):
        return dict(self.campaign.counts)

    @property
    def timings(self):
        return {
            "check.spec_build_s": self.campaign.spec_build_s,
            "check.run_trial_s": self.campaign.run_trial_s,
        }

    def extras(self):
        return {"pool_seed": CAMPAIGN_POOL_SEED, "pool_trials": CAMPAIGN_POOL_TRIALS}


SHARD_PARAMS = dict(
    n_hosts=256,
    n_vips=2048,
    segment_size=32,
    horizon=20,
    flow_users=100_000,
    kills=((4, 17), (9, 130)),
    revives=((7, 17), (14, 130)),
)


class ShardWorkload(Workload):
    """One whole sharded scenario per op, fork and world build included."""

    name = "shard_n256_w2"

    def __init__(self, shards):
        super().__init__()
        # ``shards=1`` is the serial reference ``--verify`` compares the
        # artifact bytes against; the benchmark itself runs 2.
        self.shards = shards
        self.seed = None
        self.workers = 0
        self.counts = {}
        self.artifact_sha256 = []

    def setup(self, seed, spans, traced):
        self.seed = seed
        # The profile hook sees only this process, so the traced run
        # keeps both shards in-process.
        self.workers = 0 if traced or self.shards == 1 else 2

    def op(self, index, spans):
        run = adapters.ShardedRun(self.seed + index, self.workers, self.shards, **SHARD_PARAMS)
        ok, outputs, counts, sha256 = run.run()
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value
        self._last = (outputs, sha256)
        return ok

    def observe(self, index):
        outputs, sha256 = self._last
        self.log.append(outputs)
        self.artifact_sha256.append(sha256)

    def counters(self):
        return dict(self.counts)

    def extras(self):
        return {"link": adapters.ShardedRun.link, "artifact_sha256": self.artifact_sha256}


class CliWorkload(Workload):
    """Cold ``python -m repro`` invocations, five commands in turn."""

    name = "cli_cold"

    def __init__(self):
        super().__init__()
        self.seed = None
        self.timings = {}
        self.lint_s = []
        self.trials = 0
        self._profile_dir = None

    def _run(self, argv):
        started = time.perf_counter()
        done = subprocess.run(
            argv, cwd=adapters.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120
        )
        return done, time.perf_counter() - started

    def setup(self, seed, spans, traced):
        self.seed = seed
        if traced:
            self._profile_dir = os.path.join(adapters.SYSBENCH, "out", "prof")
            os.makedirs(self._profile_dir, exist_ok=True)
            self.child_profiles = []
        # The two cold-start probes are the set-up of this workload:
        # they are what every command pays before it does any work.
        with spans.span("import-probe"):
            done, self.timings["cli.import_s"] = self._run(adapters.cli_import_command())
        if done.returncode != 0:
            raise RuntimeError("import repro.cli failed: {}".format(done.stderr.decode()[-400:]))
        with spans.span("help-probe"):
            done, self.timings["cli.help_s"] = self._run(
                adapters.cli_command(adapters.CLI_HELP_LINE, seed)
            )
        if done.returncode != 0:
            raise RuntimeError("check --help failed: {}".format(done.stderr.decode()[-400:]))

    def op(self, index, spans):
        which = index % len(adapters.CLI_LINES)
        profile_to = None
        if self.child_profiles is not None:
            profile_to = os.path.join(self._profile_dir, "cli-{}.prof".format(index))
            self.child_profiles.append(profile_to)
        done, elapsed = self._run(
            adapters.cli_command(adapters.CLI_LINES[which], self.seed, profile_to)
        )
        with spans.span("checkpoint"):
            ok = done.returncode == 0 and self._check(which, done.stdout.decode("utf-8"))
        self._last = done.stdout.decode("utf-8")
        if which == 3:
            self.trials += 4
            # ``check`` prints its own wall time on the first line.
            self._last = self._last.split("\n", 1)[-1]
        if which == 4:
            self.lint_s.append(elapsed)
            self.timings["analysis.lint_s"] = median(self.lint_s)
        return ok

    @staticmethod
    def _check(which, text):
        """The output parses, and says what a correct run must say."""
        try:
            if which == 1:
                return all(json.loads(line) is not None for line in text.splitlines() if line)
            if which == 2:
                return json.loads(text)["flow"]["lost"] > 0
            if which == 4:
                return json.loads(text)["summary"]["findings"] == 0
            if which == 3:
                return "all trials passed" in text
        except (ValueError, KeyError, TypeError):
            return False
        return bool(text.strip())

    def hooked_wall_s(self):
        """Wall seconds the children spent under the profile hook."""
        total = 0.0
        for path in self.child_profiles:
            with open(path + ".wall") as handle:
                total += float(handle.read())
        return total

    def counters(self):
        return {"check.trials": self.trials}

    def extras(self):
        return {"lines": list(adapters.CLI_LINES)}


def _scale_target(cycle):
    """Alternately a segment leader and a plain member of the same segment."""
    return cycle * 32 + (5 if cycle % 2 else 0)


def _lost_some(cluster, ops):
    return ops <= 2 or cluster.ledger()["lost"] > 0


def make(name, shards=2):
    """A fresh workload object by name (``shards`` is for ``shard_n256_w2`` only)."""
    if name == "ring_n32":
        return ClusterWorkload(
            name,
            build=lambda seed, traced: adapters.RingCluster(
                seed, n_servers=32, n_vips=48, flow_users=100_000
            ),
            target=lambda cycle: cycle,
        )
    if name == "scale_n1024":
        return ClusterWorkload(
            name,
            build=lambda seed, traced: adapters.ScaleCluster(
                seed, n_hosts=1024, n_vips=4096, segment_size=32, flow_users=0, counted=traced
            ),
            target=_scale_target,
        )
    if name == "flow_1m_n256":
        return ClusterWorkload(
            name,
            build=lambda seed, traced: adapters.ScaleCluster(
                seed, n_hosts=256, n_vips=2048, segment_size=32, flow_users=1_000_000,
                counted=traced,
            ),
            target=_scale_target,
            final_check=_lost_some,
        )
    if name == "campaign_mixed":
        return CampaignWorkload()
    if name == "shard_n256_w2":
        return ShardWorkload(shards)
    if name == "cli_cold":
        return CliWorkload()
    raise KeyError("unknown workload {!r}".format(name))

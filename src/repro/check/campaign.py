"""Campaign runner: many deterministic trials, optionally in parallel.

Each trial's randomness comes from ``RngRegistry(base_seed).fork(
"trial/<index>")`` — an independent derived seed, so trial *i* is the
same world whether it runs first, last, serially, or on any worker
process. Parallel fan-out uses ``concurrent.futures`` with the
``fork`` start method where available so workers inherit the parent's
interpreter state (including its hash seed) and verdicts stay
identical across serial and parallel modes.

:func:`run_campaign_trials` is the one fan-out, and it takes only a
:func:`campaign_params` dict. It keeps the workers warm: the parameters
are shipped once per worker (pool initializer) and each submitted task
is a bare trial index — the worker reconstructs the spec from
``(base_seed, index)`` itself, since :func:`build_trial_spec` is a
pure function of the parameters. Chunked submission amortizes the
remaining IPC. The serial path builds specs through the exact same
function, which is what makes the serial/parallel verdict-identity
guarantee hold by construction.

Failures are shrunk with ddmin and archived as JSON artifacts that
:mod:`repro.check.replay` can re-run byte-identically.
"""

import json
import os
import time

from repro.check.schedule import generate_schedule, scale_schedule
from repro.check.shrink import shrink_spec
from repro.check.trial import SPEC_DEFAULTS, make_spec, run_trial
from repro.sim.rng import RngRegistry

ARTIFACT_FORMAT = "repro-check/1"


def campaign_params(
    base_seed=0,
    trials=16,
    n_servers=4,
    n_vips=8,
    horizon=40.0,
    events_per_trial=8,
    fixture="standard",
    **spec_overrides,
):
    """Normalize campaign keyword arguments into one plain dict.

    The dict is small, JSON-compatible, and crosses the process
    boundary once per worker; everything a trial needs is derived from
    it plus a trial index. With ``stack="scale"`` among the overrides a
    trial's ``events_per_trial`` are the crash/revive pairs of
    :func:`~repro.check.schedule.scale_schedule`.
    """
    return {
        "base_seed": int(base_seed),
        "trials": int(trials),
        "n_servers": n_servers,
        "n_vips": n_vips,
        "horizon": horizon,
        "events_per_trial": events_per_trial,
        "fixture": fixture,
        "spec_overrides": dict(spec_overrides),
    }


def build_trial_spec(params, index):
    """The spec for trial ``index`` — a pure function of (params, index).

    Forking a fresh registry per index is identical to forking one
    shared registry repeatedly (forks depend only on the base seed and
    the salt), which is what lets workers rebuild specs locally from
    nothing but the campaign parameters and their assigned indices.
    """
    forked = RngRegistry(params["base_seed"]).fork("trial/{}".format(index))
    overrides = params["spec_overrides"]
    if overrides.get("stack") == "scale":
        segment_size = overrides.get("segment_size", SPEC_DEFAULTS["segment_size"][0])
        schedule = scale_schedule(
            forked.seed,
            params["n_servers"],
            segment_size,
            params["events_per_trial"],
            horizon=params["horizon"],
        )
    else:
        schedule = generate_schedule(
            forked.stream("schedule"),
            n_hosts=params["n_servers"],
            horizon=params["horizon"],
            n_events=params["events_per_trial"],
            gray=bool(overrides.get("gray", False)),
            corrupt=bool(overrides.get("corrupt", False)),
        )
    return make_spec(
        forked.seed,
        schedule,
        n_servers=params["n_servers"],
        n_vips=params["n_vips"],
        fixture=params["fixture"],
        **params["spec_overrides"],
    )


def build_specs(**kwargs):
    """Deterministic trial specs: one forked registry per trial."""
    params = campaign_params(**kwargs)
    return [build_trial_spec(params, index) for index in range(params["trials"])]


# Per-worker-process campaign parameters, installed once by the pool
# initializer so each task submission is just a trial index.
_WORKER_PARAMS = None


def _campaign_worker_init(params):
    # Deliberate per-worker-process state: the pool initializer installs
    # the campaign parameters exactly once per worker, and trials read
    # them immutably — the warm-pool design.
    global _WORKER_PARAMS
    _WORKER_PARAMS = params


def _campaign_worker_trial(index):
    return run_trial(build_trial_spec(_WORKER_PARAMS, index))


def _pool_context():
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def run_campaign_trials(params, workers=1):
    """Run one campaign's trials from a :func:`campaign_params` dict.

    The one fan-out: parallel mode ships ``params`` once per warm worker
    and submits bare indices in chunks; verdicts are identical to the
    serial path for any ``workers``.
    """
    trials = params["trials"]
    if workers <= 1:
        return [run_trial(build_trial_spec(params, index)) for index in range(trials)]
    import concurrent.futures

    chunksize = max(1, trials // (workers * 4))
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_pool_context(),
        initializer=_campaign_worker_init,
        initargs=(params,),
    ) as pool:
        return list(
            pool.map(_campaign_worker_trial, range(trials), chunksize=chunksize)
        )


class CampaignReport:
    """Everything one campaign produced."""

    def __init__(self, specs, results, failures, artifacts, elapsed, workers):
        self.specs = specs
        self.results = results
        self.failures = failures  # [(spec, result, shrunk_spec, shrunk_result)]
        self.artifacts = artifacts  # paths written, aligned with failures
        self.elapsed = elapsed
        self.workers = workers

    @property
    def verdicts(self):
        return [result["verdict"] for result in self.results]

    @property
    def passed(self):
        return all(v == "pass" for v in self.verdicts)

    def format(self):
        lines = [
            "repro check: {} trials, {} worker(s), {:.2f}s wall".format(
                len(self.results), self.workers, self.elapsed
            )
        ]
        for spec, result in zip(self.specs, self.results):
            lines.append(
                "  seed={:<20d} events={:<2d} verdict={}".format(
                    spec["seed"], len(spec["schedule"]["events"]), result["verdict"]
                )
            )
        if not self.failures:
            lines.append("  all trials passed")
        for index, (spec, result, shrunk_spec, shrunk_result) in enumerate(
            self.failures
        ):
            lines.append(
                "  FAILURE seed={}: {} -> shrunk to {} event(s)".format(
                    spec["seed"],
                    result["verdict"],
                    len(shrunk_spec["schedule"]["events"]),
                )
            )
            for event in shrunk_spec["schedule"]["events"]:
                lines.append("    {}".format(event))
            if index < len(self.artifacts):
                lines.append("    artifact: {}".format(self.artifacts[index]))
        return "\n".join(lines)


def make_artifact(spec, result, original_spec=None, original_result=None):
    """A self-contained, replayable failure record."""
    return {
        "format": ARTIFACT_FORMAT,
        "spec": spec,
        "result": result,
        "original_events": len(
            (original_spec or spec)["schedule"]["events"]
        ),
        "original_verdict": (original_result or result)["verdict"],
    }


def run_campaign(workers=1, shrink=True, shrink_budget=80, artifacts_dir=None, **campaign):
    """Generate, run, and post-process one campaign; returns a report.

    ``campaign`` holds :func:`campaign_params`' keywords, with its defaults.
    """
    params = campaign_params(**campaign)
    specs = [build_trial_spec(params, index) for index in range(params["trials"])]
    # Wall-clock is fine here: elapsed time is reported to the operator
    # only and never feeds a trial verdict or an artifact.
    started = time.perf_counter()
    results = run_campaign_trials(params, workers=workers)
    elapsed = time.perf_counter() - started

    failures = []
    artifacts = []
    for spec, result in zip(specs, results):
        if result["verdict"] == "pass":
            continue
        if shrink:
            shrunk_spec, shrunk_result, _ = shrink_spec(
                spec, baseline=result, max_trials=shrink_budget
            )
        else:
            shrunk_spec, shrunk_result = spec, result
        failures.append((spec, result, shrunk_spec, shrunk_result))
        if artifacts_dir is not None:
            os.makedirs(str(artifacts_dir), exist_ok=True)
            path = os.path.join(
                str(artifacts_dir), "check-seed{}.json".format(spec["seed"])
            )
            artifact = make_artifact(
                shrunk_spec, shrunk_result, original_spec=spec, original_result=result
            )
            with open(path, "w") as handle:
                json.dump(artifact, handle, indent=2, sort_keys=True)
            artifacts.append(path)
    return CampaignReport(specs, results, failures, artifacts, elapsed, workers)

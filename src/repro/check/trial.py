"""One campaign trial: plain dict in, plain dict out.

Specs and results are JSON-compatible dicts so trials can cross
process boundaries (``concurrent.futures``) and land in replayable
artifacts unchanged. Every runner here is a pure function of its spec:
the simulation seed, the schedule, and every harness guard depend only
on simulated state, never on wall-clock or process identity.

Three trial shapes share this module and its spec-defaults merge; the
first two audit Property 1 with a :class:`~repro.core.audit.CoverageEngine`
at every change, as exact intervals:

* :func:`run_trial` — the faithful 4–8 server cluster under a
  generated :class:`~repro.check.schedule.FaultSchedule`, with the
  profile and grace of its :data:`~repro.check.schedule.REPERTOIRES` row;
* :func:`run_scale_trial` — the 64–1024-host segmented cluster
  (:mod:`repro.apps.scalecluster`) under seed-derived kill/revive
  pairs, checked for single-owner coverage and convergence;
* :func:`run_shard_parity_trial` — one fixed-horizon scale script run
  serially and sharded, compared byte for byte.
"""

from repro.apps.scalecluster import ScaleClusterScenario, ShardedScaleScenario
from repro.check.fixtures import daemon_class
from repro.check.harness import CheckCluster
from repro.check.schedule import FaultSchedule, repertoire
from repro.obs.episodes import episodes_as_dicts
from repro.obs.spans import degraded_spans_as_dicts, stabilization_spans_as_dicts
from repro.sim.rng import RngRegistry
from repro.sim.shard.merge import artifact_bytes
from repro.sim.simulation import Simulation

SPEC_DEFAULTS = {
    "n_servers": 4,
    "n_vips": 8,
    "fixture": "standard",
    "settle_timeout": 30.0,
    "trace_tail": 30,
    "trace_capacity": 4096,
    # The campaign's row of schedule.REPERTOIRES (its mix, hardening
    # profile and grace); both off reproduces the historical cluster.
    "gray": False,
    "corrupt": False,
    # Flow plane: aggregate clients spread across the trial VIPs. Zero
    # keeps the historical trials byte-identical (no engine at all).
    "flow_users": 0,
    "flow_rate": 1.0,
}


def _merge_spec(defaults, seed, overrides, label="spec"):
    """``defaults`` overlaid with ``overrides`` plus the seed.

    Unknown fields fail loudly: a misspelt knob silently falling back
    to its default would make a campaign test something else.
    """
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError("unknown {} fields: {}".format(label, sorted(unknown)))
    spec = dict(defaults)
    spec.update(overrides)
    spec["seed"] = int(seed)
    return spec


def make_spec(seed, schedule, **overrides):
    """Build a trial spec dict; ``schedule`` is a FaultSchedule or dict."""
    if isinstance(schedule, FaultSchedule):
        schedule = schedule.to_dict()
    spec = _merge_spec(SPEC_DEFAULTS, seed, overrides)
    spec["schedule"] = schedule
    return spec


def trial_schedule(spec):
    """The spec's schedule; an event aimed past ``n_servers`` raises ValueError."""
    schedule = FaultSchedule.from_dict(spec["schedule"])
    for event in schedule.events:
        if event.host is not None and event.host >= spec["n_servers"]:
            raise ValueError("{!r} aims past the {} servers".format(event, spec["n_servers"]))
    return schedule


def run_trial(spec):
    """Run one trial; returns a verdict dict.

    Verdicts:

    * ``pass`` — no invariant violation during the fault window and
      the cluster reconverged to exact coverage afterwards.
    * ``violation`` — an interval of the view-relative Property 1 audit
      (:meth:`CoverageAuditor.audit`) that no qualifier excuses.
    * ``no_convergence`` — Property 2 failed: the cluster never
      settled back to clean physical coverage after all faults healed.
    * ``setup_failed`` — the cluster never stabilized before faults
      (indicates a harness problem, not a protocol bug).
    """
    schedule = trial_schedule(spec)
    sim = Simulation(
        seed=spec["seed"], trace_enabled=True, trace_capacity=spec["trace_capacity"]
    )
    cluster = CheckCluster(
        sim,
        spec["n_servers"],
        spec["n_vips"],
        daemon_class(spec["fixture"]),
        gray=spec["gray"],
        corrupt=spec["corrupt"],
    )
    if spec.get("flow_users"):
        cluster.attach_flow(spec["flow_users"], spec.get("flow_rate", 1.0))
    cluster.start()
    if not cluster.settle(timeout=spec["settle_timeout"]):
        return _failure(spec, sim, cluster, "setup_failed", [])

    start = sim.now
    cluster.apply_schedule(schedule, start)
    grace = repertoire(spec["gray"], spec["corrupt"]).grace
    engine = cluster.watch_coverage(grace).run(schedule.horizon)
    coverage = engine.summary()
    failures = engine.failures()
    if failures:
        return _failure(spec, sim, cluster, "violation", failures, coverage=coverage)

    # Let every event's own healing action fire, then demand convergence.
    tail = start + schedule.tail_time() + 1.0
    if sim.now < tail:
        sim.run_for(tail - sim.now)
    if not cluster.settle(timeout=spec["settle_timeout"]):
        violations = cluster.auditor.check()
        return _failure(spec, sim, cluster, "no_convergence", violations, coverage=coverage)
    return _result(
        spec,
        sim,
        cluster,
        "pass",
        events_fired=sim.scheduler.events_fired,
        restarts=cluster.restarts,
        coverage=coverage,
    )


def _result(spec, sim, cluster, verdict, **specifics):
    """The dict every outcome shares, ``specifics`` after the header."""
    records = sim.trace.records
    result = {"verdict": verdict, "seed": spec["seed"], "sim_time": round(sim.now, 6)}
    result.update(specifics)
    result["metrics"] = sim.metrics.totals()
    result["episodes"] = episodes_as_dicts(records)
    result["fault_log"] = cluster.faults.log_as_dicts()
    result["degraded"] = degraded_spans_as_dicts(records)
    # Only trials that ran a flow plane carry its key, and only corrupt
    # trials carry time-to-stabilize spans, so historical artifacts
    # (neither key on either side) still replay-compare clean.
    if cluster.flow_engine is not None:
        result["flow"] = cluster.flow_engine.fingerprint()
    if spec.get("corrupt"):
        result["stabilization"] = stabilization_spans_as_dicts(records)
    return result


def _failure(spec, sim, cluster, verdict, violations, **specifics):
    return _result(
        spec,
        sim,
        cluster,
        verdict,
        violations=sorted({repr(v) for v in violations}),
        violation_kinds=sorted({v.kind for v in violations}),
        trace_tail=[repr(r) for r in sim.trace.tail(spec["trace_tail"])],
        **specifics
    )


def result_signature(result):
    """What must match for two failures to count as "the same bug"."""
    return (result["verdict"], tuple(result.get("violation_kinds", ())))


# ----------------------------------------------------------------------
# scale-tier trials: the segmented cluster under kill/revive pairs
#
# Checked: single-owner coverage (no VIP bound by two live hosts for
# ``duplicate_grace`` seconds or longer), then convergence (after the
# last fault heals, in every cell one view naming exactly its live hosts and
# every VIP bound exactly once). The seed picks ``n_faults`` kill/revive
# pairs against distinct victims, never more than half of any segment
# at once, so the leader-succession chain always has a survivor.

SCALE_SPEC_DEFAULTS = {
    "n_hosts": 64,
    "n_vips": 512,
    "segment_size": 16,
    "n_faults": 3,
    "fault_spacing": 4.0,
    "revive_after": 6.0,
    "settle_timeout": 30.0,
    "duplicate_grace": 3.0,
}


def make_scale_spec(seed, **overrides):
    """Build a scale-trial spec dict (see SCALE_SPEC_DEFAULTS)."""
    return _merge_spec(SCALE_SPEC_DEFAULTS, seed, overrides, "scale spec")


def _pick_victims(spec):
    """Deterministic victim indices: distinct, at most half a segment.

    Derived from the spec seed through a named RNG stream, so the
    schedule is part of the trial's pure function.
    """
    rng = RngRegistry(spec["seed"]).stream("scale-victims")
    segment_size = spec["segment_size"]
    per_segment_cap = max(1, segment_size // 2)
    victims = []
    used_per_segment = {}
    candidates = list(range(spec["n_hosts"]))
    while len(victims) < spec["n_faults"] and candidates:
        index = candidates.pop(rng.randrange(len(candidates)))
        segment = index // segment_size
        if used_per_segment.get(segment, 0) >= per_segment_cap:
            continue
        used_per_segment[segment] = used_per_segment.get(segment, 0) + 1
        victims.append(index)
    return victims


def run_scale_trial(spec):
    """Run one scale trial; returns a JSON-stable verdict dict.

    Verdicts: ``pass``, ``setup_failed``, ``violation`` (a duplicate
    binding lasted the grace window), ``no_convergence``.
    """
    scenario = ScaleClusterScenario(
        seed=spec["seed"],
        n_hosts=spec["n_hosts"],
        n_vips=spec["n_vips"],
        segment_size=spec["segment_size"],
    )
    sim = scenario.sim
    scenario.start()
    if not scenario.settle(timeout=spec["settle_timeout"]):
        return _scale_result(spec, scenario, "setup_failed")

    victims = _pick_victims(spec)
    spacing = spec["fault_spacing"]
    for order, victim in enumerate(victims):
        sim.after(spacing * (order + 1), scenario.kill, victim)
        sim.after(spacing * (order + 1) + spec["revive_after"], scenario.revive, victim)
    horizon = spacing * len(victims) + spec["revive_after"]

    # Single-owner check: a bounded duplicate window during view
    # propagation is legitimate, a persistent one is a protocol bug.
    engine = scenario.watch_coverage(spec["duplicate_grace"]).run(horizon)
    persistent = sorted({v.slot for v in engine.failures()})
    if persistent:
        return _scale_result(spec, scenario, "violation", persistent=persistent)

    if not scenario.settle(timeout=spec["settle_timeout"]):
        return _scale_result(spec, scenario, "no_convergence")
    return _scale_result(spec, scenario, "pass")


SHARD_PARITY_DEFAULTS = {
    "n_hosts": 256,
    "n_vips": 2048,
    "segment_size": 32,
    "shards": 4,
    "workers": 4,
    "n_faults": 2,
    "fault_spacing": 3.0,
    "revive_after": 4.0,
    "flow_users": 100000,
    "trace_enabled": True,
    "metrics_enabled": True,
}


def make_shard_spec(seed, **overrides):
    """Build a shard-parity spec dict (see SHARD_PARITY_DEFAULTS)."""
    return _merge_spec(SHARD_PARITY_DEFAULTS, seed, overrides, "shard spec")


def run_shard_parity_trial(spec):
    """Serial-vs-sharded replay of one fixed-horizon scale scenario.

    Runs the identical :class:`ShardedScaleScenario` script twice —
    once on the serial kernel (``shards=1, workers=0``), once
    partitioned across ``spec["shards"]`` shards with
    ``spec["workers"]`` worker processes — and compares the two merged
    artifacts byte-for-byte. Verdicts: ``pass``,
    ``parity_mismatch``, ``no_convergence``. The two artifact dicts
    ride along in the result so callers (the CLI, the CI
    ``shard-parity`` job) can write them out and ``cmp`` the files.
    """
    victims = _pick_victims(spec)
    spacing = spec["fault_spacing"]
    kills = [(spacing * (order + 1), victim) for order, victim in enumerate(victims)]
    revives = [(t + spec["revive_after"], victim) for t, victim in kills]
    last_fault = max([t for t, _ in revives] or [0.0])
    horizon = last_fault + 2 * spec["revive_after"]
    common = dict(
        seed=spec["seed"],
        n_hosts=spec["n_hosts"],
        n_vips=spec["n_vips"],
        segment_size=spec["segment_size"],
        horizon=horizon,
        kills=kills,
        revives=revives,
        flow_users=spec["flow_users"],
        trace_enabled=spec["trace_enabled"],
        metrics_enabled=spec["metrics_enabled"],
    )
    serial_artifact = ShardedScaleScenario(shards=1, workers=0, **common).run()
    sharded = ShardedScaleScenario(
        shards=spec["shards"], workers=spec["workers"], **common
    )
    sharded_artifact = sharded.run()

    parity = artifact_bytes(serial_artifact) == artifact_bytes(sharded_artifact)
    if not parity:
        verdict = "parity_mismatch"
    elif not serial_artifact["converged"]:
        verdict = "no_convergence"
    else:
        verdict = "pass"
    return {
        "verdict": verdict,
        "parity": parity,
        "seed": spec["seed"],
        "n_hosts": spec["n_hosts"],
        "shards": spec["shards"],
        "workers": sharded.workers_used,
        "epochs": sharded.epochs,
        "horizon": horizon,
        "events_fired": serial_artifact["events_fired"],
        "serial_artifact": serial_artifact,
        "sharded_artifact": sharded_artifact,
    }


def _scale_result(spec, scenario, verdict, persistent=()):
    uncovered, duplicated = scenario.coverage_violations()
    result = {
        "verdict": verdict,
        "seed": spec["seed"],
        "n_hosts": spec["n_hosts"],
        "n_vips": spec["n_vips"],
        "sim_time": round(scenario.sim.now, 6),
        "events_fired": scenario.sim.scheduler.events_fired,
        "fault_log": scenario.faults.log_as_dicts(),
        "uncovered": len(uncovered),
        "duplicated": len(duplicated),
        "moved_vips": scenario.moved_vips(),
        "fingerprint": scenario.fingerprint(),
    }
    if persistent:
        result["persistent_duplicates"] = list(persistent)
    return result

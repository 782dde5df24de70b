"""One campaign trial: plain dict in, plain dict out.

Specs and results are JSON-compatible dicts so trials can cross
process boundaries (``concurrent.futures``) and land in replayable
artifacts unchanged. The runner is a pure function of its spec: the
simulation seed, the schedule, and every harness guard depend only on
simulated state, never on wall-clock or process identity.

One runner, :func:`run_trial`, serves two stacks, named by the spec's
``stack``:

* ``faithful`` — the paper's 4–8-server cluster
  (:class:`~repro.check.harness.CheckCluster`), with the profile and
  grace of its :data:`~repro.check.schedule.REPERTOIRES` row;
* ``scale`` — the 64–1024-host segmented cluster
  (:class:`~repro.apps.scalecluster.ScaleClusterScenario`) under the
  ``scale`` row's crash/revive pairs
  (:func:`~repro.check.schedule.scale_schedule`).

On either stack a trial settles, applies its schedule, audits
Property 1 with a :class:`~repro.core.audit.CoverageEngine` at every
change, lets every event heal and demands convergence. One builder
makes every result, so :mod:`~repro.check.shrink` and
:mod:`~repro.check.replay` take a failure of either stack. A scale spec
with ``shards`` ≥ 2 is a parity check instead: its schedule runs from
boot to the horizon through :class:`ShardedScaleScenario` serially and
at the spec's split, and the two artifacts must match byte for byte.
Either way a trial frees its world, a web of reference cycles, when it returns.
"""

import gc
import math

from repro.apps.scalecluster import ADDRESS_PLAN as SCALE_PLAN
from repro.apps.scalecluster import ScaleClusterScenario, ShardedScaleScenario
from repro.check.fixtures import FIXTURES, daemon_class
from repro.check.harness import ADDRESS_PLAN as FAITHFUL_PLAN
from repro.check.harness import CheckCluster
from repro.check.schedule import FaultSchedule, repertoire
from repro.obs.episodes import EpisodeFold
from repro.obs.spans import DegradedFold, StabilizationFold
from repro.sim.shard.merge import artifact_bytes
from repro.sim.simulation import Simulation
from repro.sim.trace import TRACE_WINDOW

STACKS = ("faithful", "scale")


def _whole(least):
    return (lambda value: type(value) is int and value >= least), "an integer >= {}".format(least)


def _one_of(choices):
    return (lambda value: value in choices), "one of {}".format(sorted(choices))


# NaN fails every comparison; a bool is no number here.
_POSITIVE = (lambda value: type(value) in (int, float) and 0 < value < math.inf,
             "positive and finite")
_FLAG = (lambda value: type(value) is bool), "true or false"

#: Every knob of a spec: ``(default, (accepts, requirement))``. make_spec
#: applies each row, so a saved artifact meets what a fresh spec does.
SPEC_DEFAULTS = {
    # A spec without the key is faithful, as every artifact before it was.
    "stack": ("faithful", _one_of(STACKS)),
    # Hosts, on either stack.
    "n_servers": (4, _whole(1)),
    "n_vips": (8, _whole(1)),
    "fixture": ("standard", _one_of(tuple(FIXTURES))),
    "settle_timeout": (30.0, _POSITIVE),
    "trace_tail": (30, _whole(0)),
    "trace_capacity": (TRACE_WINDOW, (lambda value: value is None or type(value) is int
                                      and value >= 1, "None or an integer >= 1")),
    # The campaign's row of schedule.REPERTOIRES (its mix, hardening
    # profile and grace); both off reproduces the historical cluster.
    "gray": (False, _FLAG),
    "corrupt": (False, _FLAG),
    # Flow plane: aggregate clients spread across the trial VIPs. Zero
    # keeps the historical trials byte-identical (no engine at all).
    "flow_users": (0, _whole(0)),
    "flow_rate": (1.0, _POSITIVE),
    # Scale stack only: hosts per cell; two shards or more make the
    # trial a serial-vs-sharded parity check, forked over ``workers``.
    "segment_size": (16, _whole(1)),
    "shards": (1, _whole(1)),
    "workers": (0, _whole(0)),
}


def make_spec(seed, schedule, **overrides):
    """Build a trial spec dict; ``schedule`` is a FaultSchedule or dict.

    Unknown fields and values their row refuses fail loudly: a misspelt
    knob silently falling back to its default, or a NaN rate, would make
    a campaign test something else.
    """
    unknown = set(overrides) - set(SPEC_DEFAULTS)
    if unknown:
        raise ValueError("unknown spec fields: {}".format(sorted(unknown)))
    if isinstance(schedule, FaultSchedule):
        schedule = schedule.to_dict()
    spec = {name: default for name, (default, _check) in SPEC_DEFAULTS.items()}
    spec.update(overrides)
    for name, (_default, (accepts, requirement)) in SPEC_DEFAULTS.items():
        if not accepts(spec[name]):
            raise ValueError("spec field {} must be {}, not {!r}".format(
                name, requirement, spec[name]))
    spec["seed"] = int(seed)
    spec["schedule"] = schedule
    return spec


def trial_schedule(spec):
    """The spec's schedule, checked against its stack before anything is built.

    Raises ValueError for a cluster its stack's address plan cannot
    number, an event aimed past ``n_servers``, and on the scale stack a
    kind its row does not mix or a variant (gray, corrupt, a fixture) it
    does not have yet.
    """
    schedule = FaultSchedule.from_dict(spec["schedule"])
    stack = spec["stack"]
    scale = stack == "scale"
    plan = SCALE_PLAN if scale else FAITHFUL_PLAN
    for field in ("servers", "vips"):
        if spec["n_" + field] > plan[field]:
            raise ValueError("spec field n_{} exceeds the {} stack's address plan (at most {})"
                             .format(field, stack, plan[field]))
    if scale and (spec["gray"] or spec["corrupt"] or spec["fixture"] != "standard"):
        raise ValueError("the scale stack has no gray, corrupt or fixture variant yet")
    kinds = {kind for _, kind in repertoire(stack=stack).mix}
    for event in schedule.events:
        targets = (event.split or ()) if event.host is None else (event.host,)
        if max(targets, default=-1) >= spec["n_servers"]:
            raise ValueError("{!r} aims past the {} servers".format(event, spec["n_servers"]))
        if scale and event.kind not in kinds:
            raise ValueError("{!r} has no meaning on the scale stack yet".format(event))
    return schedule


def run_trial(spec):
    """Run one trial; returns a verdict dict.

    Verdicts:

    * ``pass`` — no invariant violation during the fault window and
      the cluster reconverged to exact coverage afterwards.
    * ``violation`` — an interval of the view-relative Property 1
      audit (:meth:`CoverageAuditor.audit`, over either stack's
      members) that no qualifier excuses and that outlasted its row's
      grace.
    * ``no_convergence`` — Property 2 failed: the cluster never
      settled back to clean physical coverage after all faults healed.
    * ``setup_failed`` — the cluster never stabilized before faults
      (indicates a harness problem, not a protocol bug).
    * ``parity_mismatch`` — a parity check's serial and sharded
      artifacts differ.

    The collector is paused for the trial, so its world stays young and
    one generation-0 pass frees it without walking the caller's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _trial(spec)
    finally:
        if enabled:
            gc.enable()
        gc.collect(0)


def _trial(spec):
    schedule = trial_schedule(spec)
    scale = spec["stack"] == "scale"
    if scale and spec["shards"] >= 2:
        return _parity_trial(spec, schedule)
    if scale:
        cluster = ScaleClusterScenario(
            seed=spec["seed"], n_hosts=spec["n_servers"], n_vips=spec["n_vips"],
            segment_size=spec["segment_size"], flow_users=spec["flow_users"],
        )
        sim = cluster.sim
    else:
        sim = Simulation(seed=spec["seed"], trace_enabled=True,
                         trace_capacity=spec["trace_capacity"])
        cluster = CheckCluster(
            sim,
            spec["n_servers"],
            spec["n_vips"],
            daemon_class(spec["fixture"]),
            gray=spec["gray"],
            corrupt=spec["corrupt"],
        )
        if spec["flow_users"]:
            cluster.attach_flow(spec["flow_users"], spec["flow_rate"])
    # The artifact's episodes and spans cover the whole run, whatever the window.
    for fold in (EpisodeFold, DegradedFold) + ((StabilizationFold,) if spec["corrupt"] else ()):
        sim.trace.fold(fold)
    cluster.start()
    if not cluster.settle(timeout=spec["settle_timeout"]):
        return _failure(spec, sim, cluster, "setup_failed", [])

    start = sim.now
    cluster.apply_schedule(schedule, start)
    grace = repertoire(spec["gray"], spec["corrupt"], spec["stack"]).grace
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
    specifics = {"events_fired": sim.scheduler.events_fired}
    if not scale:
        specifics["restarts"] = cluster.restarts
    return _result(spec, sim, cluster, "pass", coverage=coverage, **specifics)


def _result(spec, sim, cluster, verdict, **specifics):
    """The dict every outcome shares, ``specifics`` after the header."""
    trace = sim.trace
    result = {"verdict": verdict, "seed": spec["seed"], "sim_time": round(sim.now, 6)}
    result.update(specifics)
    result["metrics"] = sim.metrics.totals()
    result["episodes"] = trace.fold(EpisodeFold).as_dicts()
    result["fault_log"] = cluster.faults.log_as_dicts()
    result["degraded"] = trace.fold(DegradedFold).as_dicts()
    if cluster.flow_engine is not None:
        result["flow"] = cluster.flow_engine.fingerprint()
    if spec["corrupt"]:
        result["stabilization"] = trace.fold(StabilizationFold).as_dicts()
    if spec["stack"] == "scale":
        slots, covered, duplicated = cluster.auditor.counts()
        result["uncovered"] = slots - covered
        result["duplicated"] = duplicated
        result["moved_vips"] = cluster.moved_vips()
        result["fingerprint"] = cluster.fingerprint()
    return result


def _failure(spec, sim, cluster, verdict, violations, **specifics):
    return _result(
        spec, sim, cluster, verdict,
        violations=sorted({repr(v) for v in violations}),
        violation_kinds=sorted({v.kind for v in violations}),
        trace_tail=[repr(r) for r in sim.trace.tail(spec["trace_tail"])],
        **specifics
    )


def _parity_trial(spec, schedule):
    """The schedule from boot to its horizon, serially and at the spec's split.

    Verdicts: ``pass``, ``parity_mismatch``, ``no_convergence``. The
    two artifact dicts ride along so callers (the CLI, the CI
    ``shard-parity`` job) can write them out and ``cmp`` the files.
    """
    script = dict(
        seed=spec["seed"],
        n_hosts=spec["n_servers"],
        n_vips=spec["n_vips"],
        segment_size=spec["segment_size"],
        flow_users=spec["flow_users"],
        trace_enabled=True,
        metrics_enabled=True,
        horizon=schedule.horizon,
        kills=[(event.time, event.host) for event in schedule.events],
        revives=[(event.time + event.duration, event.host) for event in schedule.events],
    )
    serial = ShardedScaleScenario(shards=1, workers=0, **script).run()
    sharded = ShardedScaleScenario(shards=spec["shards"], workers=spec["workers"], **script).run()
    if artifact_bytes(serial) != artifact_bytes(sharded):
        verdict = "parity_mismatch"
    elif not serial["converged"]:
        verdict = "no_convergence"
    else:
        verdict = "pass"
    return {
        "verdict": verdict,
        "seed": spec["seed"],
        "sim_time": schedule.horizon,
        "events_fired": serial["events_fired"],
        "serial_artifact": serial,
        "sharded_artifact": sharded,
    }


def result_signature(result):
    """What must match for two failures to count as "the same bug"."""
    return (result["verdict"], tuple(result.get("violation_kinds", ())))

"""The driver process of one run: set one workload up, issue ops, report.

Spawned fresh by ``sysbench/run.py`` for every run, so ``setup_s``
holds interpreter start, imports and cluster construction. Prints one
JSON object as the last line of its standard output.
"""

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import sys
import time
import traceback


def _cpu_seconds():
    times = os.times()
    return times.user + times.system, times.children_user + times.children_system


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="issue ops for this long")
    parser.add_argument("--ops", type=int, help="issue exactly this many ops instead")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    traced = bool(args.traced)

    # Imports are part of set-up: they happen after the clock started.
    from sysbench import adapters, workloads
    from sysbench.calibrate import Probe, Sampler
    from sysbench.fold import fold
    from sysbench.spec import WORKLOADS

    spec = WORKLOADS[args.workload]
    probe = Probe()
    workload = workloads.make(args.workload, args.shards)
    spans = workloads.Spans(traced)
    setup_profile = cProfile.Profile() if traced else None
    with spans.span("setup"):
        if traced:
            setup_profile.enable()
        workload.setup(args.seed, spans, traced)
        if traced:
            setup_profile.disable()
    setup_s = time.monotonic() - args.spawned_at
    # Host speed next to every timed interval (see sysbench/calibrate.py);
    # the traced run reports raw self times and needs none.
    speed = 0.0 if traced else probe()
    setup_probe_s = speed
    sampler = None
    if not traced and spec.get("sampled"):
        sampler = Sampler()
        sampler.start()

    ops_profile = cProfile.Profile() if traced else None
    durations = []
    probes = []
    peak_rss_kb = None
    failed = 0
    errors = []
    cpu_self, cpu_children = _cpu_seconds()
    phase_started = time.perf_counter()
    if traced:
        ops_profile.enable()
    index = 0
    while args.ops is None or index < args.ops:
        started = time.perf_counter()
        with spans.span("op", index=index):
            try:
                ok = workload.op(index, spans)
            except Exception:  # an op that raises is a failed op, not a dead run
                ok = False
                if len(errors) < 3:
                    errors.append(traceback.format_exc(limit=8))
        now = time.perf_counter()
        durations.append(now - started)
        if sampler is not None:
            probes.append(sampler.between(started, now) or probe())
        elif not traced:
            after = probe()
            probes.append((speed + after) / 2.0)
            speed = after
        failed += not ok
        index += 1
        if index == spec["rss_ops"]:
            peak_rss_kb = _peak_rss_kb()
        if index <= spec["digest_ops"]:
            # Outputs are collected outside the timed and hooked region.
            if traced:
                ops_profile.disable()
            workload.observe(index - 1)
            if traced:
                ops_profile.enable()
        if (
            args.ops is None
            and now - phase_started >= args.seconds
            and index >= spec["rss_ops"]
            and index % spec["cycle"] == 0
        ):
            break
    if traced:
        ops_profile.disable()
    if sampler is not None:
        sampler.stop()
    cpu_self_end, cpu_children_end = _cpu_seconds()
    if index and not workload.finish(index):
        failed += 1
        errors.append("end-of-run check failed")
    digest = _digest(workload.outputs())

    extras = workload.extras()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": traced,
        "setup_s": setup_s,
        "ops": index,
        "failed": failed,
        "errors": errors,
        "setup_probe_s": setup_probe_s,
        "op_ms": [duration * 1e3 for duration in durations],
        "op_probe_s": probes,
        "cpu_s": cpu_self_end - cpu_self,
        "child_cpu_s": cpu_children_end - cpu_children,
        "peak_rss_mb": (peak_rss_kb or _peak_rss_kb()) / 1024.0,
        "sim_digest": digest,
        "digest_ops": min(index, spec["digest_ops"]),
        "counts": workload.counters() if index else {},
        "timings": dict(workload.timings),
        "extras": extras,
    }
    if traced:
        # The wall the profile hook was on: what the layers must add up to.
        if workload.child_profiles is not None:
            ops_stats = pstats.Stats(*workload.child_profiles).stats
            result["hooked_wall_s"] = workload.hooked_wall_s()
        else:
            ops_stats = pstats.Stats(ops_profile).stats
            result["hooked_wall_s"] = sum(durations)
        folds = {
            "ops": fold(ops_stats, adapters.layer_of_path),
            "setup": fold(pstats.Stats(setup_profile).stats, adapters.layer_of_path),
        }
        result["folds"] = folds
        out_dir = os.path.join(adapters.SYSBENCH, "out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, args.workload + ".trace.json"), "w") as handle:
            json.dump(
                {"workload": args.workload, "seed": args.seed, "ops": index,
                 "spans": spans.records, "folds": folds},
                handle,
                indent=1,
            )
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


def _peak_rss_kb():
    """Peak resident set so far: this process or its largest child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _digest(outputs):
    payload = json.dumps(outputs, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


if __name__ == "__main__":
    sys.exit(main())

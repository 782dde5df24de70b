"""sysbench: the system benchmark of the ``repro`` package.

One run (what ``BENCHMARK.json`` names as ``command``)::

    python3 sysbench/run.py --workload ring_n32 --seed 7 --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line, one
JSON object. ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` is the separate traced run that yields the per-layer
metrics. Whole sets::

    python3 sysbench/run.py --all [--seed S] [--repeat R] [--trace 1] [--out FILE]
    python3 sysbench/run.py --compare A.json B.json
    python3 sysbench/run.py --verify
    python3 sysbench/run.py --smoke

See ``sysbench/README.md``.
"""

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from sysbench import compare as comparison  # noqa: E402
from sysbench import spec  # noqa: E402
from sysbench.calibrate import Probe, at_reference_speed  # noqa: E402
from sysbench.schema import check_contract, check_result  # noqa: E402
from sysbench.stats import iqr_share, median, percentile, rel_range  # noqa: E402

OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def load_contract():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def child_env():
    """The environment of every process the benchmark starts.

    Bytecode is cached under ``sysbench/out`` (inside the checkout, out
    of the source tree), so imports cost what they cost a user whose
    interpreter caches bytecode, whatever the caller's environment says.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload, seed, seconds=None, ops=None, traced=False, shards=2):
    """Run one fresh driver process to its end; returns its result dict."""
    argv = [
        sys.executable, "-m", "sysbench.driver",
        "--workload", workload, "--seed", str(seed),
        "--traced", str(int(traced)), "--shards", str(shards),
    ]
    argv += ["--ops", str(ops)] if ops is not None else ["--seconds", repr(float(seconds))]
    argv += ["--spawned-at", repr(time.monotonic())]
    done = subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            "driver for {} exited with {}:\n{}".format(
                workload, done.returncode, done.stderr.decode("utf-8", "replace")[-2000:]
            )
        )
    return json.loads(done.stdout.decode("utf-8").splitlines()[-1])


# ----------------------------------------------------------------------
# one run


def _timed_setup(probe, workload, seed, **how):
    """Spawn one driver; returns (its result, set-up seconds raw, at reference speed)."""
    before = probe()
    run = spawn(workload, seed, **how)
    speed = (before + run["setup_probe_s"]) / 2.0
    return run, run["setup_s"], at_reference_speed(run["setup_s"], speed)


def typical_cycle_rate(op_s, cycle):
    """Ops per second of the median cycle.

    A run is whole cycles of ``cycle`` ops; position ``k`` of every cycle
    does the same kind of work. The median cycle takes, at each position,
    the median time of the ops at that position — so one burst of host
    noise moves one sample of one position, not the throughput.
    """
    return cycle / sum(median(op_s[position::cycle]) for position in range(cycle))


def end_to_end(workload, seed, seconds, setups=None, ops=None):
    """The untraced run: one full driver, plus set-up-only drivers.

    Times are at reference speed (``sysbench/calibrate.py``); the raw
    wall-clock values are kept in the detail. ``ops`` (``--smoke``)
    issues that many ops instead of running for ``seconds``.
    """
    probe = Probe()
    how = {"ops": ops} if ops is not None else {"seconds": seconds}
    full, raw_setup, setup = _timed_setup(probe, workload, seed, **how)
    raw_setups, setup_samples = [raw_setup], [setup]
    for _ in range((setups or spec.WORKLOADS[workload]["setups"]) - 1):
        _, raw_setup, setup = _timed_setup(probe, workload, seed, ops=0)
        raw_setups.append(raw_setup)
        setup_samples.append(setup)
    cycle = spec.WORKLOADS[workload]["cycle"]
    op_ms = [
        at_reference_speed(wall, speed) for wall, speed in zip(full["op_ms"], full["op_probe_s"])
    ]
    values = {
        "setup_s": median(setup_samples),
        "ops_per_s": typical_cycle_rate(op_ms, cycle) * 1e3,
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_p90": percentile(op_ms, 90),
        "peak_rss_mb": full["peak_rss_mb"],
    }
    detail = {
        "sim_digest": full["sim_digest"],
        "digest_ops": full["digest_ops"],
        "raw": {
            "setup_s": median(raw_setups),
            "ops_per_s": full["ops"] / (sum(full["op_ms"]) / 1e3),
            "op_ms_p50": percentile(full["op_ms"], 50),
            "op_ms_p90": percentile(full["op_ms"], 90),
            "probe_ms_p50": percentile(full["op_probe_s"], 50) * 1e3,
        },
        "errors": full["errors"],
        "extras": full["extras"],
    }
    return _result(full, values, detail)


def per_layer(workload, seed, seconds):
    """The traced run: the same fixed ops untraced, then under the profile hook."""
    ops = max(1, round(spec.WORKLOADS[workload]["trace_ops"] * seconds / 10.0))
    reference = spawn(workload, seed, ops=ops)
    traced = spawn(workload, seed, ops=ops, traced=True)
    reference_wall = sum(reference["op_ms"]) / 1e3
    traced_wall = sum(traced["op_ms"]) / 1e3
    ops_fold, setup_fold = traced["folds"]["ops"], traced["folds"]["setup"]
    attributed = sum(row["self_s"] for row in ops_fold["layers"].values())

    values = {}
    for layer in spec.LAYERS:
        row = ops_fold["layers"].get(layer, {"self_s": 0.0, "calls": 0, "calls_in": 0.0})
        values[layer + ".self_s"] = row["self_s"]
        values[layer + ".self_share"] = row["self_s"] / attributed if attributed else 0.0
        values[layer + ".calls"] = row["calls"]
        values[layer + ".calls_in"] = round(row["calls_in"])
        values[layer + ".setup_self_s"] = setup_fold["layers"].get(layer, {}).get("self_s", 0.0)
    for name in spec.TIMINGS:
        values[name] = reference["timings"].get(name, 0.0)
    for name in spec.COUNTS:
        values[name] = traced["counts"].get(name, 0)
    sharded = workload == "shard_n256_w2"
    values["sim.shard.child_cpu_s"] = reference["child_cpu_s"] if sharded else 0.0
    values["sim.shard.parent_idle_share"] = (
        1.0 - reference["cpu_s"] / reference_wall if sharded else 0.0
    )
    gaps = traced["extras"].get("probe_gaps") or [0.0]
    values["apps.probe_interruption_s_p50"] = percentile(gaps, 50)
    harness = ops_fold["layers"].get("harness", {"self_s": 0.0})["self_s"]
    values["sysbench.traced_ops"] = traced["ops"]
    values["sysbench.trace_overhead_x"] = traced_wall / reference_wall
    values["sysbench.cpu_ms_per_op"] = (
        (reference["cpu_s"] + reference["child_cpu_s"]) * 1e3 / reference["ops"]
    )
    values["sysbench.layer_sum_ratio"] = attributed / traced["hooked_wall_s"]
    values["sysbench.other_share"] = harness / attributed if attributed else 0.0

    detail = {
        "sim_digest": traced["sim_digest"],
        "digests_agree": traced["sim_digest"] == reference["sim_digest"],
        "traced_wall_s": traced_wall,
        "reference_wall_s": reference_wall,
        "edges": ops_fold["edges"],
        "errors": reference["errors"] + traced["errors"],
    }
    result = _result(traced, values, detail)
    result["failed"] += reference["failed"]
    result["attempted"] += reference["ops"]
    result["correct"] = result["failed"] == 0 and detail["digests_agree"]
    return result


def _result(run, values, detail):
    return {
        "correct": run["failed"] == 0,
        "attempted": run["ops"],
        "failed": run["failed"],
        "values": values,
        "detail": detail,
    }


def run_once(contract, workload, seed, seconds, trace, setups=None, ops=None):
    if trace:
        result = per_layer(workload, seed, seconds)
        units = {metric["name"]: metric["unit"] for metric in contract["per_layer"]}
    else:
        result = end_to_end(workload, seed, seconds, setups, ops)
        units = {metric["name"]: metric["unit"] for metric in contract["end_to_end"]}
    values = result.pop("values")
    if set(values) != set(units):
        raise RuntimeError(
            "metrics out of step with BENCHMARK.json: {}".format(
                sorted(set(values) ^ set(units))
            )
        )
    result["metrics"] = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    return result


def print_metrics(workload, result):
    for name, metric in result["metrics"].items():
        print("{:<16} {:<34} {:>16.6f} {}".format(workload, name, metric["value"], metric["unit"]))
    for name, value in result["detail"].get("raw", {}).items():
        print("{:<16} {:<34} {:>16.6f} (wall clock, uncorrected)".format(
            workload, "raw." + name, value))


def contract_line(result):
    """The one JSON object the benchmark contract asks for."""
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


# ----------------------------------------------------------------------
# whole sets


def host_info():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_all(contract, seed, seconds, repeat, trace):
    """``repeat`` sets, workloads interleaved A B C ... A B C.

    Interleaving makes a slow minute on a shared box land on every
    workload, not on all the repeats of one.
    """
    host = host_info()
    names = spec.NAMES
    runs = {name: [] for name in names}
    for index in range(repeat):
        for name in names:
            result = run_once(contract, name, seed, seconds, trace)
            runs[name].append(result)
            print("# repeat {} {} ok={}".format(index + 1, name, result["correct"]), flush=True)
    bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    workloads = {}
    noisy = []
    for name in names:
        repeats = runs[name]
        metrics = {}
        for key, first in repeats[0]["metrics"].items():
            samples = [run["metrics"][key]["value"] for run in repeats]
            # ``spread`` is the quartile distance over the median, the
            # run-to-run spread the bounds are held against; the min-max
            # range is kept beside it.
            metrics[key] = {
                "value": median(samples),
                "unit": first["unit"],
                "repeats": samples,
                "spread": iqr_share(samples),
                "range": rel_range(samples),
            }
            if not trace and metrics[key]["spread"] > bounds[key]:
                noisy.append([name, key])
        attempted = sum(run["attempted"] for run in repeats)
        failed = sum(run["failed"] for run in repeats)
        digests = sorted({run["detail"]["sim_digest"] for run in repeats})
        workloads[name] = {
            "why": spec.WORKLOADS[name]["why"],
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "sim_digest": digests[0] if len(digests) == 1 else digests,
            "repeat_spread": max(metric["spread"] for metric in metrics.values()),
            "detail": repeats[-1]["detail"],
        }
    return {
        "schema": "sysbench/1",
        "mode": "per_layer" if trace else "end_to_end",
        "seed": seed,
        "seconds": seconds,
        "repeat": repeat,
        "host": host,
        "noisy": noisy,
        "workloads": workloads,
    }


def print_set(results):
    for name, entry in results["workloads"].items():
        for key, metric in entry["metrics"].items():
            print(
                "{:<16} {:<34} {:>16.6f} {:<6} spread {:.3f}".format(
                    name, key, metric["value"], metric["unit"], metric["spread"]
                )
            )
        print("{:<16} {:<34} {:>16.6f} failed/attempted".format(
            name, "fail_ratio", entry["fail_ratio"]))
        print("{:<16} {:<34} {}".format(name, "sim_digest", entry["sim_digest"]))
    if results["noisy"]:
        print("NOISY: repeat spread exceeds the bound for {}".format(results["noisy"]))


def layer_table(results):
    """Markdown: per workload, each layer's share of the traced ops phase."""
    names = list(results["workloads"])
    lines = [
        "| layer | " + " | ".join(names) + " |",
        "|---|" + "---:|" * len(names),
    ]
    for layer in spec.LAYERS:
        cells = [
            "{:.1%}".format(results["workloads"][name]["metrics"][layer + ".self_share"]["value"])
            for name in names
        ]
        lines.append("| `{}` | ".format(layer) + " | ".join(cells) + " |")
    for label, key, form in (
        ("other (harness)", "sysbench.other_share", "{:.1%}"),
        ("layer sum / traced wall", "sysbench.layer_sum_ratio", "{:.3f}"),
        ("trace overhead ×", "sysbench.trace_overhead_x", "{:.2f}"),
        ("traced ops", "sysbench.traced_ops", "{:.0f}"),
    ):
        cells = [form.format(results["workloads"][name]["metrics"][key]["value"]) for name in names]
        lines.append("| {} | ".format(label) + " | ".join(cells) + " |")
    return "\n".join(lines)


def layer_budget(results):
    """Workloads whose layers do not add up: ``[(workload, problem)]``."""
    problems = []
    for name, entry in results["workloads"].items():
        ratio = entry["metrics"]["sysbench.layer_sum_ratio"]["value"]
        other = entry["metrics"]["sysbench.other_share"]["value"]
        if abs(ratio - 1.0) > 0.05:
            problems.append((name, "layer self times sum to {:.3f} of traced wall".format(ratio)))
        if other > 0.02:
            problems.append((name, "other/unattributed is {:.1%}".format(other)))
    return problems


# ----------------------------------------------------------------------
# verify and smoke


def verify(seed):
    """Same seed twice: same digest and counts. Another seed: another digest."""
    failures = []
    for name in spec.NAMES:
        ops = spec.WORKLOADS[name]["digest_ops"]
        first = spawn(name, seed, ops=ops)
        second = spawn(name, seed, ops=ops)
        other = spawn(name, seed + 1, ops=ops)
        if first["sim_digest"] != second["sim_digest"]:
            failures.append("{}: sim_digest differs between two runs at seed {}".format(name, seed))
        if first["counts"] != second["counts"]:
            moved = sorted(
                key for key in set(first["counts"]) | set(second["counts"])
                if first["counts"].get(key) != second["counts"].get(key)
            )
            failures.append("{}: exact counts differ at the same seed: {}".format(name, moved))
        if first["sim_digest"] == other["sim_digest"]:
            failures.append("{}: sim_digest did not move with the seed".format(name))
        if first["failed"] or second["failed"] or other["failed"]:
            failures.append("{}: an op failed".format(name))
        if name == "shard_n256_w2":
            serial = spawn(name, seed, ops=ops, shards=1)
            if serial["extras"]["artifact_sha256"] != first["extras"]["artifact_sha256"]:
                failures.append("{}: artifact bytes differ from shards=1, workers=0".format(name))
        print("# verify {} {}".format(name, first["sim_digest"][:16]), flush=True)
    return failures


def smoke(contract):
    """Every workload for one cycle of ops, one set-up; validates the output schema."""
    check_contract(contract)
    seconds = contract["run_seconds"] / 20.0
    for name in spec.NAMES:
        cycle = spec.WORKLOADS[name]["cycle"]
        result = run_once(contract, name, 1, seconds, trace=False, setups=1, ops=cycle)
        check_result(contract, result, trace=False)
        print("# smoke {} ops={} failed={}".format(name, result["attempted"], result["failed"]),
              flush=True)
    traced = run_once(contract, "campaign_mixed", 1, seconds, trace=True)
    check_result(contract, traced, trace=True)
    print("# smoke campaign_mixed traced ok")


# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=spec.NAMES)
    parser.add_argument("--all", action="store_true", help="every workload, --repeat times")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", help="where --all writes its result set")
    parser.add_argument("--compare", nargs=2, metavar=("BASE.json", "CHANGE.json"))
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]

    if args.compare:
        base, change = (load_json(path) for path in args.compare)
        rows = comparison.compare(base, change, contract)
        print(comparison.render(rows, *args.compare))
        for label, results in zip(args.compare, (base, change)):
            if results["noisy"]:
                print("noisy result set {}: {}".format(label, results["noisy"]))
        return comparison.exit_code(rows)
    if args.verify:
        failures = verify(args.seed)
        print("\n".join(failures) if failures else "verify: ok")
        return 1 if failures else 0
    if args.smoke:
        smoke(contract)
        return 0
    if args.all:
        results = run_all(contract, args.seed, seconds, args.repeat, bool(args.trace))
        print_set(results)
        problems = []
        if args.trace:
            print(layer_table(results))
            problems = layer_budget(results)
            for name, problem in problems:
                print("LAYER BUDGET: {}: {}".format(name, problem))
        os.makedirs(OUT, exist_ok=True)
        path = args.out or os.path.join(
            OUT, "results-{}.json".format("trace" if args.trace else "e2e")
        )
        with open(path, "w") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
        print("wrote {}".format(path))
        failed = any(entry["failed"] for entry in results["workloads"].values())
        return 1 if failed or problems else 0
    if not args.workload:
        parser.error("one of --workload, --all, --compare, --verify, --smoke is required")
    result = run_once(contract, args.workload, args.seed, seconds, bool(args.trace))
    print_metrics(args.workload, result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

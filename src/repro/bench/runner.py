"""Timing harness and the one record of performance, ``BENCH_kernel.json``.

This is the one module in the bench subsystem allowed to read the real
clock (it is listed in the linter's wall-clock exemptions): the
workloads of :mod:`repro.bench.suite` are pure virtual-time
simulations; here they are repeated, their wall times reduced to a
median, and the result appended to the record. A run in the record is
one of two things, told apart by the key it carries::

    {
      "format": "repro-bench/2",
      "runs": [
        {                             # a tripwire run (`repro bench`)
          "rev": "<git short rev or 'unknown'>",
          "host": {"cpus": 2},        # os.cpu_count() where the run ran
          "benches": {
            "<name>": {
              "median_s": 0.123456,   # median wall seconds per repeat
              "per_s": 162000.0,      # units processed per second
              "unit": "events",       # events | frames
              "units": 40000,         # units per repeat
              "samples": [..]         # every repeat's wall seconds
            }, ...
          }
        },
        {                             # a sysbench summary (`--sysbench`)
          "rev": "<git short rev>",
          "sysbench": {
            "mode": "end_to_end" | "per_layer",
            "seed": 0, "seconds": 10, "repeat": 3,
            "host": {..},             # as sysbench/run.py recorded it
            "workloads": {
              "<name>": {
                "metrics": {"setup_s": 0.31, ..},   # end_to_end: medians
                "layers": {"net": {"self_s": ..}},  # per_layer: medians by layer
                "repeat_spread": 0.08,
                "sim_digest": "<sha256>",
                "fail_ratio": 0.0
              }, ...
            }
          }
        }, ...
      ]
    }

Runs are plain dicts, appended and never dropped or rewritten, so
entries written under ``repro-bench/1`` (which also carry a ``mode``
label and benches that no longer exist) stay in the file exactly as
they were recorded.

The tripwire compares each bench with the most recent recorded result
*of that bench at the same* ``units`` — the size is read from the
record, so a run of another size is history and never a baseline. A
bench whose median slows down by more than the threshold is a
regression and ``repro bench`` exits nonzero, which is what the CI
bench job gates on.
"""

import json
import os
import statistics
import time

from repro.bench.suite import BENCHES

BENCH_FORMAT = "repro-bench/2"
READABLE_FORMATS = ("repro-bench/1", BENCH_FORMAT)
SYSBENCH_SCHEMA = "sysbench/1"


def _git_rev():
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


# ----------------------------------------------------------------------
# tripwire runs


def run_bench(name, repeats):
    """Time one bench ``repeats`` times; returns its result dict."""
    run, unit = BENCHES[name]
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        units = run()
        samples.append(round(time.perf_counter() - started, 6))
    median = statistics.median(samples)
    return {
        "median_s": round(median, 6),
        "per_s": round(units / median if median > 0 else 0.0, 1),
        "unit": unit,
        "units": units,
        "samples": samples,
    }


def run_suite(repeats, progress=None):
    """Run the three tripwires; returns a tripwire run."""
    benches = {}
    for name in sorted(BENCHES):
        if progress is not None:
            progress("running {} ...".format(name))
        benches[name] = run_bench(name, repeats)
    return {
        "rev": _git_rev(),
        "host": {"cpus": os.cpu_count() or 1},
        "benches": benches,
    }


def format_run(run):
    """The table ``repro bench`` prints for a tripwire run."""
    lines = [
        "repro bench rev={} cpus={}".format(
            run.get("rev", "unknown"), run.get("host", {}).get("cpus", "?")
        ),
        "  {:<22} {:>12} {:>16} {:>8}".format("bench", "median", "rate", "units"),
    ]
    for name, result in sorted(run["benches"].items()):
        lines.append(
            "  {:<22} {:>10.4f}s {:>12,.1f}/s {:>8,}".format(
                name, result["median_s"], result["per_s"], result["units"]
            )
        )
    return "\n".join(lines)


def baseline_of(runs, name, units):
    """``(rev, result)`` of the last recorded ``name`` at ``units``, or None."""
    for run in reversed(runs):
        result = run.get("benches", {}).get(name)
        if result is not None and result["units"] == units:
            return run.get("rev", "unknown"), result
    return None


class BenchComparison:
    """A tripwire run vs. each bench's last same-size recorded result."""

    def __init__(self, runs, current, threshold=0.25):
        self.threshold = threshold
        self.rows = []  # (name, baseline rev, old_s, new_s, speedup)
        self.regressions = []
        for name, result in sorted(current["benches"].items()):
            found = baseline_of(runs, name, result["units"])
            if found is None:
                continue
            rev, old = found
            old_s, new_s = old["median_s"], result["median_s"]
            speedup = old_s / new_s if new_s > 0 else float("inf")
            self.rows.append((name, rev, old_s, new_s, speedup))
            if new_s > old_s * (1.0 + threshold):
                self.regressions.append(name)

    @property
    def ok(self):
        return not self.regressions

    def format(self):
        if not self.rows:
            return "no previous run of these benches at these sizes to compare against"
        lines = ["vs the last recorded run (threshold {:.0%}):".format(self.threshold)]
        for name, rev, old_s, new_s, speedup in self.rows:
            marker = " REGRESSION" if name in self.regressions else ""
            lines.append(
                "  {:<22} rev={:<8} {:>10.4f}s -> {:>8.4f}s  x{:.2f}{}".format(
                    name, rev, old_s, new_s, speedup, marker
                )
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# sysbench summaries


def _by_layer(medians):
    """``{"net.self_s": 1.2}`` as ``{"net": {"self_s": 1.2}}``."""
    layers = {}
    for key, value in medians.items():
        layer, _, metric = key.rpartition(".")
        layers.setdefault(layer, {})[metric] = value
    return layers


def sysbench_summary(results):
    """The run that records a ``sysbench/run.py --all --out`` result set.

    Keeps, per workload, the median of every metric (grouped by layer
    for a ``per_layer`` set), the repeat spread, the digest and the
    failed share, plus how the set was run; drops the per-repeat values
    and ``detail``. Raises :class:`ValueError` naming the field of a
    result set it cannot read.
    """
    schema = results.get("schema") if isinstance(results, dict) else None
    if schema != SYSBENCH_SCHEMA:
        raise ValueError("schema: expected {!r}, got {!r}".format(SYSBENCH_SCHEMA, schema))
    try:
        per_layer = results["mode"] == "per_layer"
        workloads = {}
        for name, entry in results["workloads"].items():
            medians = {key: metric["value"] for key, metric in entry["metrics"].items()}
            kept = {"layers": _by_layer(medians)} if per_layer else {"metrics": medians}
            for key in ("repeat_spread", "sim_digest", "fail_ratio"):
                kept[key] = entry[key]
            workloads[name] = kept
        summary = {key: results[key] for key in ("mode", "seed", "seconds", "repeat", "host")}
    except KeyError as missing:
        raise ValueError("result set has no field {}".format(missing)) from None
    summary["workloads"] = workloads
    return {"rev": _git_rev(), "sysbench": summary}


def format_summary(run):
    """One line per workload of a sysbench summary."""
    summary = run["sysbench"]
    lines = [
        "sysbench summary [{}] rev={} seed={} seconds={} repeat={}".format(
            summary["mode"], run["rev"], summary["seed"], summary["seconds"], summary["repeat"]
        )
    ]
    for name, entry in summary["workloads"].items():
        medians = entry.get("metrics", {})
        lines.append(
            "  {:<16} {} spread {:.3f} failed {:.3f} digest {}".format(
                name,
                " ".join("{}={:.4g}".format(key, value) for key, value in medians.items()),
                entry["repeat_spread"],
                entry["fail_ratio"],
                str(entry["sim_digest"])[:16],
            )
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the record


def load_trajectory(path):
    """Read the record; returns its runs (plain dicts), oldest first."""
    try:
        with open(str(path)) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return []
    if data.get("format") not in READABLE_FORMATS:
        raise ValueError(
            "not a repro-bench record (format={!r})".format(data.get("format"))
        )
    return data.get("runs", [])


def save_trajectory(path, runs):
    """Write the record: every run, most recent last."""
    payload = {"format": BENCH_FORMAT, "runs": runs}
    with open(str(path), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

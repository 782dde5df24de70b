"""Timing harness and trajectory file for ``repro bench``.

This is the one module in the bench subsystem allowed to read the real
clock (it is listed in the linter's wall-clock exemptions): workloads
themselves are pure virtual-time simulations defined in
:mod:`repro.bench.suite`; here they are repeated, their wall times
reduced to a median, and the result appended to a versioned trajectory
file (``BENCH_kernel.json``) whose schema is::

    {
      "format": "repro-bench/1",
      "runs": [
        {
          "rev": "<git short rev or 'unknown'>",
          "mode": "quick" | "full" | "scale",
          "host": {"cpus": 8},        # os.cpu_count() where the run ran
          "benches": {
            "<name>": {
              "median_s": 0.123456,   # median wall seconds per repeat
              "per_s": 162000.0,      # units processed per second
              "unit": "events",       # events | frames | trials
              "units": 20000,         # units per repeat
              "samples": [..],        # every repeat's wall seconds
              "workers": 4            # only for multi-process benches
            }, ...
          }
        }, ...
      ]
    }

The ``host.cpus`` / ``workers`` metadata makes parallel-kernel numbers
comparable across machines: a ``kernel_sharded_n256`` median from a
1-core container and one from an 8-core runner are different
experiments, and the trajectory now says which was which.

Comparison is always against the *most recent previous run with the
same mode* (quick numbers are never compared to full numbers): a bench
whose median slows down by more than the threshold is a regression and
``repro bench`` exits nonzero, which is what the CI bench job gates on.
"""

import json
import os
import time

from repro.bench.suite import SCALES, bench_names, build_workload

BENCH_FORMAT = "repro-bench/1"
DEFAULT_REPEATS = {"quick": 3, "full": 5, "scale": 3}
HISTORY_LIMIT = 40


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


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class BenchRun:
    """One suite execution: per-bench medians plus run metadata."""

    def __init__(self, mode, rev, benches, host=None):
        self.mode = mode
        self.rev = rev
        self.benches = benches  # name -> result dict (schema above)
        self.host = dict(host) if host else {}

    def to_dict(self):
        return {
            "rev": self.rev,
            "mode": self.mode,
            "host": self.host,
            "benches": self.benches,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data.get("mode", "full"),
            data.get("rev", "unknown"),
            data["benches"],
            host=data.get("host"),
        )

    def format(self):
        lines = [
            "repro bench [{}] rev={} cpus={}".format(
                self.mode, self.rev, self.host.get("cpus", "?")
            ),
            "  {:<22} {:>12} {:>16} {:>8}".format("bench", "median", "rate", "units"),
        ]
        for name in sorted(self.benches):
            result = self.benches[name]
            lines.append(
                "  {:<22} {:>10.4f}s {:>12,.1f}/s {:>8,}".format(
                    name, result["median_s"], result["per_s"], result["units"]
                )
            )
        return "\n".join(lines)


def run_bench(name, mode="quick", repeats=None, overrides=None):
    """Time one bench; returns its result dict."""
    repeats = repeats or DEFAULT_REPEATS[mode]
    samples = []
    units = 0
    scale = {}
    unit = None
    for _ in range(repeats):
        run, unit, scale = build_workload(name, mode, overrides=overrides)
        started = time.perf_counter()
        units = run()
        samples.append(round(time.perf_counter() - started, 6))
    median = _median(samples)
    per_s = units / median if median > 0 else 0.0
    result = {
        "median_s": round(median, 6),
        "per_s": round(per_s, 1),
        "unit": unit,
        "units": units,
        "samples": samples,
    }
    if "workers" in scale:
        # How many processes did the work — without it a parallel
        # median is meaningless next to host.cpus.
        result["workers"] = scale["workers"]
    return result


def run_suite(mode="quick", names=None, repeats=None, progress=None, overrides=None):
    """Run the whole suite (or ``names``); returns a :class:`BenchRun`.

    ``overrides`` maps bench name -> scale-dict overrides for that
    bench (see :func:`repro.bench.suite.build_workload`).
    """
    selected = list(names) if names else bench_names(mode)
    unknown = sorted(set(selected) - set(SCALES[mode]))
    if unknown:
        raise ValueError("unknown bench name(s): {}".format(unknown))
    benches = {}
    for name in selected:
        if progress is not None:
            progress("running {} ...".format(name))
        benches[name] = run_bench(
            name,
            mode=mode,
            repeats=repeats,
            overrides=(overrides or {}).get(name),
        )
    return BenchRun(mode, _git_rev(), benches, host={"cpus": os.cpu_count() or 1})


# ----------------------------------------------------------------------
# trajectory file


def load_trajectory(path):
    """Read a trajectory file; returns a list of :class:`BenchRun`."""
    try:
        with open(str(path)) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return []
    if data.get("format") != BENCH_FORMAT:
        raise ValueError(
            "not a repro-bench trajectory (format={!r})".format(data.get("format"))
        )
    return [BenchRun.from_dict(entry) for entry in data.get("runs", [])]


def save_trajectory(path, runs):
    """Write the trajectory file (most recent run last, history capped)."""
    payload = {
        "format": BENCH_FORMAT,
        "runs": [run.to_dict() for run in runs[-HISTORY_LIMIT:]],
    }
    with open(str(path), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def previous_run(runs, mode):
    """Most recent recorded run with the given mode, or None."""
    for run in reversed(runs):
        if run.mode == mode:
            return run
    return None


class BenchComparison:
    """New run vs. the previous same-mode run: speedups and regressions."""

    def __init__(self, baseline, current, threshold):
        self.baseline = baseline
        self.current = current
        self.threshold = threshold
        self.rows = []  # (name, old_s, new_s, speedup)
        self.regressions = []
        for name in sorted(current.benches):
            old = baseline.benches.get(name) if baseline else None
            if old is None:
                continue
            old_s, new_s = old["median_s"], current.benches[name]["median_s"]
            speedup = old_s / new_s if new_s > 0 else float("inf")
            self.rows.append((name, old_s, new_s, speedup))
            if new_s > old_s * (1.0 + threshold):
                self.regressions.append(name)

    @property
    def ok(self):
        return not self.regressions

    def format(self):
        if not self.rows:
            return "no previous {} run to compare against".format(
                self.current.mode
            )
        lines = [
            "vs rev={} (threshold {:.0%}):".format(
                self.baseline.rev, self.threshold
            )
        ]
        for name, old_s, new_s, speedup in self.rows:
            marker = " REGRESSION" if name in self.regressions else ""
            lines.append(
                "  {:<22} {:>10.4f}s -> {:>8.4f}s  x{:.2f}{}".format(
                    name, old_s, new_s, speedup, marker
                )
            )
        return "\n".join(lines)


def compare_runs(runs, current, threshold=0.25):
    """Compare ``current`` to the last same-mode entry of ``runs``."""
    return BenchComparison(previous_run(runs, current.mode), current, threshold)

"""The one record of performance and the kernel tripwires that guard it.

``repro bench`` runs the three kernel micro-benchmarks defined in
:mod:`repro.bench.suite`, appends the result to ``BENCH_kernel.json``
and compares it with the previous recorded run so a kernel regression
fails loudly; ``repro bench --sysbench RESULTS.json`` appends the
summary of a system-benchmark result set to the same file. See
``docs/BENCHMARKS.md``.
"""

from repro.bench.runner import (
    BENCH_FORMAT,
    BenchComparison,
    format_run,
    format_summary,
    load_trajectory,
    run_suite,
    save_trajectory,
    sysbench_summary,
)
from repro.bench.suite import BENCHES

__all__ = [
    "BENCH_FORMAT",
    "BENCHES",
    "BenchComparison",
    "format_run",
    "format_summary",
    "load_trajectory",
    "run_suite",
    "save_trajectory",
    "sysbench_summary",
]

"""sysbench — the system benchmark for the ``repro`` package.

Six named workloads, end-to-end wall-clock metrics measured from
outside the program, and a per-layer attribution taken with a profile
hook. See ``sysbench/README.md``; the contract is ``BENCHMARK.json``.
"""

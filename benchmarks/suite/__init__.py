"""The performance benchmark suite: five workloads, end-to-end metrics with
regression bounds, and a profiler-traced per-layer ledger.

``BENCHMARK.json`` at the repository root is the machine-readable contract;
``README.md`` beside this file explains every workload, metric and bound.
Entry point: ``python -m benchmarks.suite`` (see :mod:`benchmarks.suite.cli`).
"""

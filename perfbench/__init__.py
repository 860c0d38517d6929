"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run it from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

See ``perfbench/NOTES.md`` for the workloads, the metrics and the
steadiness evidence behind the bounds in ``BENCHMARK.json``.
"""

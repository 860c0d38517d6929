"""One fresh benchmark process: set up, measure, check, report.

Started by ``perfbench/run.py`` with BLAS/OpenMP pinned to one thread
and ``src`` on the path; prints one JSON record as its last stdout
line.  A run measures in several such processes (``--part``), each
with its own inputs, so every run also yields several set-up times.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Any

from perfbench.harness import (
    Recorder,
    host_provenance,
    log,
    now,
    peak_rss_mb,
    thread_provenance,
    timed_window,
)


def traced_window(operation: Any, seconds: float) -> "dict[str, Any]":
    """Alternate untraced and traced operations for ``seconds``.

    Odd operations run with every layer entry point wrapped, even ones
    with none, so both halves sample the same stretch of host noise and
    their throughput difference is the tracing overhead.
    """
    from perfbench import layers
    from perfbench.workloads import solver_cache_stats

    recorder = Recorder()
    sides = [{"units": 0, "seconds": 0.0, "failed": 0} for _ in range(2)]
    lookups = hits = 0
    index = 0
    started = now()
    while now() - started < seconds:
        traced = index % 2
        if traced:
            before = solver_cache_stats()
            layers.install(recorder)
        begun = now()
        try:
            units, failed = operation(index)
        finally:
            elapsed = now() - begun
            if traced:
                recorder.restore()
        if traced:
            after = solver_cache_stats()
            hits += after["hits"] - before["hits"]
            lookups += (after["hits"] + after["misses"]) - (
                before["hits"] + before["misses"]
            )
        side = sides[traced]
        side["units"] += units
        side["seconds"] += elapsed
        side["failed"] += failed
        index += 1
    plain, traced_side = sides
    if not traced_side["units"]:
        raise RuntimeError("the traced window completed no traced operation")
    per_layer = layers.layer_metrics(recorder, traced_side["units"])
    per_layer["engine.cache.lookups"] = lookups / traced_side["units"]
    per_layer["engine.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    per_layer["trace.overhead_frac"] = 1.0 - (
        traced_side["units"] / traced_side["seconds"]
    ) / (plain["units"] / plain["seconds"])
    return {
        "units": plain["units"] + traced_side["units"],
        "failed": plain["failed"] + traced_side["failed"],
        "elapsed_s": now() - started,
        "per_layer": per_layer,
    }


def build_record(measurement: "dict[str, Any]", trace: bool) -> "dict[str, Any]":
    """The child record, from what one workload's measurement returned.

    Every measurement function (:func:`measure_in_process` and
    :func:`perfbench.serve_mixed.measure`) returns the same pieces, so
    the record schema and the failure accounting live here only:
    ``failed`` counts failed window operations plus failed post-run
    checks, and ``problems`` gives the reason for each.
    """
    window = measurement["window"]
    failures = [problem for problem in measurement["post_run"] if problem is not None]
    record: dict[str, Any] = {
        "setup_s": measurement["setup_s"],
        "threads": measurement["threads"],
        "peak_rss_mb": measurement["peak_rss_mb"],
        "shared_work_share": measurement["shared_work_share"],
        "units": window["units"],
        "elapsed_s": window["elapsed_s"],
        "checks": len(measurement["post_run"]),
        "failed": window["failed"] + len(failures),
        "problems": measurement["problems"] + failures,
    }
    if trace:
        record["per_layer"] = {
            **window["per_layer"],
            "cli.import_s": measurement["import_s"],
            "shared_work_share": measurement["shared_work_share"],
        }
    return record


def measure_in_process(args: argparse.Namespace) -> "dict[str, Any]":
    """Drive one of :data:`perfbench.workloads.WORKLOADS` in this process."""
    started = now()
    import repro  # noqa: F401  (timed: every entry point pays this import)

    import_s = now() - started
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.part)
    workload.setup()
    workload.warm_up()
    setup_s = now() - args.spawned_at
    threads = [thread_provenance()]

    def operation(index: int) -> "tuple[int, int]":
        try:
            return workload.operation(index)
        except Exception:  # an operation that raised is a failed operation
            traceback.print_exc()
            workload.problems.append(f"operation {index} raised")
            return 1, 1

    if args.trace:
        window = traced_window(operation, args.seconds)
        window["per_layer"]["simulation.batch.census_s"] = getattr(
            workload, "census_s", 0.0
        )
    else:
        window = timed_window(operation, args.seconds)
    # both read before the post-run checks, which use memory and the cache
    peak = peak_rss_mb()
    shared = workload.shared_work_share(window["units"])
    return {
        "setup_s": setup_s,
        "import_s": import_s,
        "threads": threads,
        "peak_rss_mb": peak,
        "window": window,
        "shared_work_share": shared,
        "post_run": workload.check(),
        "problems": workload.problems,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    if args.workload == "serve-mixed":
        from perfbench import serve_mixed

        measurement = serve_mixed.measure(args)
    else:
        measurement = measure_in_process(args)
    record = build_record(measurement, bool(args.trace))
    record["host"] = host_provenance(os.getcwd())
    for problem in record["problems"]:
        log(f"{args.workload}: check failed: {problem}")
    print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Every process started here runs with BLAS/OpenMP pinned to one thread
(on two cores, 20 cold six-version evaluations took 0.72–1.30 s at the
default OpenBLAS threading and 0.36–0.43 s at one thread).  A run
measures in :data:`PARTS` fresh processes one after the other, each
with its own inputs and a third of the window: set-up and peak RSS are
their medians, throughput pools their work and time.
``--trace 1`` runs one process whose operations alternate untraced and
traced and reports the per-layer metrics instead.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries the provenance (BLAS vendor
and thread setting of every process, CPUs, versions, git sha).  Exit
codes: 0 correct, 1 a wrong output, 2 the program could not be run,
3 a process ran with a thread setting other than 1 (refused, no result).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.harness import (  # noqa: E402  (needs ROOT on the path)
    OUTPUT_DIR,
    cpu_ticks,
    log,
    now,
    pinned_environment,
    steal_share,
    threads_pinned,
)
from perfbench.layers import PER_LAYER  # noqa: E402

WORKLOADS = ("sweep", "serve-mixed", "sim-batch", "large-solve")

#: End-to-end metrics, the same for every workload: (name, unit).  The
#: client-side hit/miss latencies of ``serve-mixed`` are per-layer
#: metrics (``serve.hit_p50_ms`` ...), because every end-to-end metric
#: must be reported by every workload and only ``serve-mixed`` serves
#: requests.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
)

#: Fresh measurement processes per untraced run.  Host speed drifts
#: over seconds, so splitting the window costs no steadiness, and each
#: process contributes a set-up time.
PARTS = 3

#: Wall-clock budget of one invocation, after which children are killed.
BUDGET_S = 170.0


class BenchmarkError(Exception):
    """The program could not be run to a result."""


def _spawn(
    args: argparse.Namespace,
    part: int,
    seconds: float,
    env: "dict[str, str]",
    deadline: float,
) -> "dict[str, Any]":
    """One fresh child process; returns its JSON record.

    The record gains ``host_steal_frac``, the share of CPU time the host
    took from this machine while the child ran.
    """
    command = [
        sys.executable,
        "-m",
        "perfbench.child",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--part",
        str(part),
        "--seconds",
        repr(seconds),
        "--trace",
        str(args.trace),
        "--spawned-at",
    ]
    ticks = cpu_ticks()
    spawned_at = now()
    child = subprocess.Popen(
        [*command, repr(spawned_at)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # the server and its pool join this group
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchmarkError(f"{args.workload} part {part} exceeded the time budget")
    finally:
        try:  # nothing the child started may outlive it
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{args.workload} part {part} exited with {child.returncode}"
        )
    record = json.loads(lines[-1])
    record["host_steal_frac"] = steal_share(ticks, cpu_ticks())
    return record


def _metrics(
    args: argparse.Namespace, records: "list[dict[str, Any]]"
) -> "dict[str, dict[str, Any]]":
    if args.trace:
        (record,) = records
        return {
            name: {"value": record["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER
        }
    values = {
        "setup_s": statistics.median(record["setup_s"] for record in records),
        "peak_rss_mb": statistics.median(record["peak_rss_mb"] for record in records),
        "throughput_per_s": sum(record["units"] for record in records)
        / sum(record["elapsed_s"] for record in records),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = now() + BUDGET_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        log(f"no program to measure: {src}/repro is missing")
        return 2
    os.chdir(ROOT)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    env = pinned_environment(dict(os.environ), src)
    try:
        # byte-compile once so no measured process pays for it
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - now()),
        )
        parts = 1 if args.trace else PARTS
        records = [
            _spawn(args, part, args.seconds / parts, env, deadline)
            for part in range(parts)
        ]
        metrics = _metrics(args, records)
    except (BenchmarkError, subprocess.SubprocessError, ValueError) as error:
        log(f"no result: {error}")
        return 2

    threads = [thread for record in records for thread in record["threads"]]
    unpinned = [thread for thread in threads if not threads_pinned(thread)]
    if unpinned:
        log(
            "refused: processes ran with a BLAS/OpenMP thread setting "
            f"other than 1: {unpinned}"
        )
        return 3
    problems = [problem for record in records for problem in record["problems"]]
    failed = sum(record["failed"] for record in records)
    # timed operations plus the post-run checks, which can fail too
    attempted = sum(record["units"] + record["checks"] for record in records)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads_setting": 1,
        "processes": threads,
        "host": records[-1]["host"],
        "setup_samples_s": [record["setup_s"] for record in records],
        "shared_work_share": [record["shared_work_share"] for record in records],
        "host_steal_frac": [record["host_steal_frac"] for record in records],
        "problems": problems,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUTPUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(
            {"provenance": provenance, "metrics": metrics},
            handle,
            indent=1,
            sort_keys=True,
        )
    correct = failed == 0 and not problems
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Overhead budget of the watch pipeline over the batch firehose.

``repro simulate --batch --watch`` adds two costs to a run: the
runtime records per-round int64 totals (``record_round_totals=True``)
and the finished report is folded through the drift detector window by
window.  Both are O(rounds) against the runtime's O(groups x rounds)
vectorized work, so the contract is that watching the full 1M-request
firehose (:func:`~repro.simulation.batch.runtime.sim_batch_config`)
costs **under ``BUDGET_PCT`` percent** of wall time — alerting that
taxed the firehose would simply be left off.

This script times the watched firehose against the plain run
(best-of-``ROUNDS``, rounds interleaved so machine drift hits both
sides equally) and fails when the overhead exceeds the budget.

Prints the measurement as JSON on stdout and exits non-zero over
budget::

    PYTHONPATH=src python benchmarks/bench_watch_overhead.py > bench-watch.json
"""

from __future__ import annotations

import dataclasses
import json

from repro.obs import collect_manifest, now
from repro.obs.metrics import registry_override
from repro.obs.watch import batch_watch_config, watch_batch_report
from repro.perception.evaluation import evaluate
from repro.simulation import simulate_batch
from repro.simulation.batch.runtime import sim_batch_config

#: Repetitions per mode; best (minimum) time per mode is compared.
ROUNDS = 3

#: Maximum tolerated slowdown of the watched run over the plain run,
#: in percent.
BUDGET_PCT = 5.0


def _baseline() -> None:
    """The plain firehose: no totals, no detectors."""
    with registry_override():
        simulate_batch(sim_batch_config())


def _watched(target: float) -> None:
    """The watched firehose: totals + drift fold."""
    config = dataclasses.replace(
        sim_batch_config(), record_round_totals=True
    )
    with registry_override():
        report = simulate_batch(config)
    watcher = watch_batch_report(
        config, report, batch_watch_config(config, target=target)
    )
    if watcher.log.events:
        raise RuntimeError(
            "clean firehose stream raised alerts; the timing would "
            "be measuring a broken detector"
        )


def measure() -> dict:
    config = sim_batch_config()
    target = evaluate(config.parameters).expected_reliability

    # Warm both paths (imports, numpy caches) before timing anything.
    _baseline()
    _watched(target)

    baseline: list[float] = []
    watched: list[float] = []
    for _ in range(ROUNDS):
        start = now()
        _baseline()
        baseline.append(now() - start)

        start = now()
        _watched(target)
        watched.append(now() - start)

    baseline_s = min(baseline)
    watched_s = min(watched)
    overhead_pct = (watched_s / baseline_s - 1.0) * 100.0

    return {
        "manifest": collect_manifest(
            experiment="bench_watch_overhead",
            parameters={"rounds": ROUNDS, "budget_pct": BUDGET_PCT},
        ).as_dict(),
        "requests": config.groups * config.rounds,
        "baseline_s": baseline_s,
        "watched_s": watched_s,
        "overhead_pct": overhead_pct,
        "budget_pct": BUDGET_PCT,
    }


def main() -> None:
    results = measure()
    print(json.dumps(results, indent=2))
    if results["overhead_pct"] > results["budget_pct"]:
        raise SystemExit(
            f"watch overhead {results['overhead_pct']:.2f}% exceeds the "
            f"{results['budget_pct']:.1f}% budget"
        )


if __name__ == "__main__":
    main()

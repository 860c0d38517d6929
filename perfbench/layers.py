"""Layer entry points the traced run wraps, and the per-layer metrics.

Each entry names the module attribute the program actually calls
through (``repro.statespace.explore`` is what ``tangible_reachability``
calls; ``build_mrgp_kernels`` is looked up in ``repro.dspn.steady_state``),
so a change to the path the program takes shows up in the counts: a
sweep that re-rates instead of re-exploring makes fewer
``statespace.explore`` calls.  Nothing inside ``src/`` is modified; the
wrappers are installed around each traced operation and removed after.
"""

from __future__ import annotations

import importlib
from collections import Counter
from typing import Any

from perfbench.harness import Recorder


def _count_states(counts: Counter, graph: Any) -> None:
    counts["statespace.tangible_states"] += graph.n_states


def _count_krylov(counts: Counter, result: Any) -> None:
    _, info = result
    counts["markov.krylov_iterations"] += info.iterations


#: (module, attribute or Class.method, span name, result observer)
ENTRY_POINTS = (
    ("repro.engine.hashing", "net_fingerprint", "engine.fingerprint", None),
    ("repro.engine.tasks", "evaluate", "perception.evaluate", None),
    # dspn.solve is reported by no metric: it bounds perception.evaluate's
    # self time to net build and the Eq. 1 contraction
    ("repro.perception.evaluation", "solve_steady_state", "dspn.solve", None),
    ("repro.dspn", "solve_steady_state", "dspn.solve", None),
    ("repro.statespace", "explore", "statespace.explore", None),
    ("repro.statespace", "eliminate_vanishing", "statespace.vanishing", _count_states),
    ("repro.dspn.steady_state", "build_mrgp_kernels", "dspn.mrgp_builder", None),
    ("repro.dspn.steady_state", "build_ctmc", "dspn.ctmc_builder", None),
    ("repro.dspn.transient", "build_ctmc", "dspn.ctmc_builder", None),
    ("repro.dspn.steady_state", "sparse_generator", "dspn.sparse_builder", None),
    ("repro.dspn.transient", "sparse_generator", "dspn.sparse_builder", None),
    ("repro.dspn.steady_state", "solve_mrgp", "markov.mrgp", None),
    ("repro.markov.ctmc", "CTMC.stationary_distribution", "markov.ctmc", None),
    (
        "repro.dspn.steady_state",
        "stationary_distribution_sparse",
        "markov.sparse",
        _count_krylov,
    ),
    ("repro.markov.sparse", "uniformized_series", "markov.uniformization", None),
    (
        "repro.markov.uniformization",
        "uniformized_series",
        "markov.uniformization",
        None,
    ),
    ("repro.verify.certify", "certify_steady_state", "verify.certify", None),
    (
        "repro.simulation.batch.runtime",
        "simulate_batch",
        "simulation.batch.runtime",
        None,
    ),
    (
        "repro.simulation.batch.schedule",
        "SeedSchedule.round_draws",
        "simulation.batch.schedule",
        None,
    ),
    ("repro.simulation.batch.runtime", "tally_rounds", "simulation.batch.voter", None),
    (
        "repro.simulation.batch.runtime",
        "classify_worst_case",
        "simulation.batch.voter",
        None,
    ),
    (
        "repro.simulation.batch.monitor",
        "BatchMonitor.observe_round",
        "simulation.batch.monitor",
        None,
    ),
    ("repro.obs.watch", "watch_batch_report", "obs.watch.fold", None),
)

#: Per-layer metrics, in report order: (name, unit).  Times are span
#: self times and counts are summed over the traced operations, both per
#: unit of work (the unit ``throughput_per_s`` counts), so a faster
#: layer reads lower even though the window length is fixed.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("engine.fingerprint_s", "s/op"),
    ("engine.cache.lookups", "count/op"),
    ("engine.cache.hit_ratio", "1"),
    ("statespace.explore_s", "s/op"),
    ("statespace.vanishing_s", "s/op"),
    ("statespace.explore_calls", "count/op"),
    ("statespace.tangible_states", "count/op"),
    ("dspn.mrgp_builder_s", "s/op"),
    ("dspn.ctmc_builder_s", "s/op"),
    ("dspn.sparse_builder_s", "s/op"),
    ("markov.mrgp_s", "s/op"),
    ("markov.ctmc_s", "s/op"),
    ("markov.sparse_s", "s/op"),
    ("markov.krylov_iterations", "count/op"),
    ("markov.uniformization_s", "s/op"),
    ("perception.evaluate_self_s", "s/op"),
    ("verify.certify_s", "s/op"),
    ("serve.request_p50_ms", "ms"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.compute_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "1"),
    ("serve.executed_per_miss", "1"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p90_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("simulation.batch.schedule_s", "s/op"),
    ("simulation.batch.voter_s", "s/op"),
    ("simulation.batch.monitor_s", "s/op"),
    ("simulation.batch.runtime_self_s", "s/op"),
    ("simulation.batch.census_s", "s"),
    ("obs.watch.fold_s", "s/op"),
    ("shared_work_share", "1"),
    ("trace.overhead_frac", "1"),
)

#: Span name -> per-layer time metric.
_SPAN_METRICS = {
    "engine.fingerprint": "engine.fingerprint_s",
    "statespace.explore": "statespace.explore_s",
    "statespace.vanishing": "statespace.vanishing_s",
    "dspn.mrgp_builder": "dspn.mrgp_builder_s",
    "dspn.ctmc_builder": "dspn.ctmc_builder_s",
    "dspn.sparse_builder": "dspn.sparse_builder_s",
    "markov.mrgp": "markov.mrgp_s",
    "markov.ctmc": "markov.ctmc_s",
    "markov.sparse": "markov.sparse_s",
    "markov.uniformization": "markov.uniformization_s",
    "perception.evaluate": "perception.evaluate_self_s",
    "verify.certify": "verify.certify_s",
    "simulation.batch.schedule": "simulation.batch.schedule_s",
    "simulation.batch.voter": "simulation.batch.voter_s",
    "simulation.batch.monitor": "simulation.batch.monitor_s",
    "simulation.batch.runtime": "simulation.batch.runtime_self_s",
    "obs.watch.fold": "obs.watch.fold_s",
}

#: Counter -> per-layer count metric.
_COUNT_METRICS = {
    "statespace.explore.calls": "statespace.explore_calls",
    "statespace.tangible_states": "statespace.tangible_states",
    "markov.krylov_iterations": "markov.krylov_iterations",
}


def install(recorder: Recorder) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS`."""
    for module_name, attribute, name, observe in ENTRY_POINTS:
        owner: Any = importlib.import_module(module_name)
        *classes, leaf = attribute.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        recorder.wrap(owner, leaf, name, observe)


def layer_metrics(recorder: Recorder, units: int) -> "dict[str, float]":
    """Span self times and counts of the traced window, per unit of work."""
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for span_name, seconds in recorder.self_times().items():
        metric = _SPAN_METRICS.get(span_name)
        if metric is not None:
            metrics[metric] = seconds / units
    for counter_name, metric in _COUNT_METRICS.items():
        metrics[metric] = recorder.counts.get(counter_name, 0) / units
    return metrics


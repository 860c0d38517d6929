"""Overhead budget of the observability layer (``repro.obs``).

The instrumentation contract is "free when off": with no active tracer,
``span(...)`` is one ContextVar read returning a shared no-op singleton,
and metric updates are cheap dictionary bumps.  This benchmark holds the
layer to that contract by timing the solver pipeline twice —

* **disabled** — the shipping configuration: instrumentation in place,
  tracing off (the path every normal ``repro`` run takes);
* **stubbed**  — the same workload with each instrumented module's
  ``span``/``counter``/``histogram`` hooks swapped for trivial stubs,
  approximating an uninstrumented build;

— and asserting the disabled path stays within ``BUDGET_PCT`` of the
stubbed baseline.  Each of ``ROUNDS`` rounds repeats the pipeline pass
until each mode has run for at least ``ROUND_SECONDS``, alternating
the modes pass by pass so drift and host noise hit both sides
equally; the verdict is the median of the per-round disabled/stubbed
ratios.  BLAS and OpenMP run single-threaded (set
below, before numpy loads), so thread scheduling on a small host does
not swamp the difference being measured.  A microbenchmark of the bare
no-op ``span()`` call is recorded alongside for context.

Prints the measurement as JSON on stdout and exits non-zero over
budget::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py > bench-obs.json
"""

from __future__ import annotations

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import contextlib  # noqa: E402 - the thread pins must precede numpy
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402

from repro.dspn import solve_steady_state  # noqa: E402
from repro.engine import cache_override  # noqa: E402
from repro.obs import NULL_SPAN, collect_manifest, now, span  # noqa: E402
from repro.perception.no_rejuvenation import build_no_rejuvenation_net  # noqa: E402
from repro.perception.parameters import PerceptionParameters  # noqa: E402
from repro.perception.rejuvenation import build_rejuvenation_net  # noqa: E402

#: Paired rounds; the median per-round disabled/stubbed ratio is judged.
ROUNDS = 7

#: Minimum length of one mode's timing in a round; the pipeline pass is
#: repeated until it is reached.
ROUND_SECONDS = 1.0

#: Maximum tolerated slowdown of disabled-tracing over the stubbed
#: baseline, in percent.
BUDGET_PCT = 5.0

#: Every module that imports observability hooks at module level.
INSTRUMENTED_MODULES = (
    "repro.statespace",
    "repro.statespace.reachability",
    "repro.statespace.vanishing",
    "repro.dspn.ctmc_builder",
    "repro.dspn.mrgp_builder",
    "repro.dspn.rewards",
    "repro.dspn.steady_state",
    "repro.dspn.simulate",
    "repro.markov.linear",
    "repro.markov.ctmc",
    "repro.markov.mrgp",
    "repro.perception.evaluation",
    "repro.engine.cache",
    "repro.engine.sweep",
    "repro.verify.runner",
)


class _StubMetric:
    """Inert counter/gauge/histogram stand-in."""

    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_STUB_METRIC = _StubMetric()


def _stub_span(name, **attrs):
    return NULL_SPAN


def _stub_metric(name):
    return _STUB_METRIC


@contextlib.contextmanager
def stubbed_instrumentation():
    """Swap every module-level obs hook for a trivial stub.

    This approximates a build with no observability layer at all: the
    call sites remain (they cannot be deleted without editing source)
    but resolve to constant-returning functions with no ContextVar
    lookups and no registry access.
    """
    saved: list[tuple[object, str, object]] = []
    for module_name in INSTRUMENTED_MODULES:
        module = importlib.import_module(module_name)
        for attr, stub in (
            ("span", _stub_span),
            ("counter", _stub_metric),
            ("gauge", _stub_metric),
            ("histogram", _stub_metric),
        ):
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, stub)
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _workload(ctmc_net, mrgp_net) -> None:
    """One traced-pipeline pass: a CTMC-route and an MRGP-route solve."""
    with cache_override(enabled=False):
        solve_steady_state(ctmc_net)
        solve_steady_state(mrgp_net)


def _noop_span_cost(samples: int = 200_000) -> float:
    """Seconds per ``span()`` call with tracing disabled."""
    start = now()
    for _ in range(samples):
        span("bench.noop")
    return (now() - start) / samples


def _timed_pass(stubbed: bool, ctmc_net, mrgp_net) -> float:
    """Seconds of one pipeline pass, with the hooks stubbed or not."""
    with stubbed_instrumentation() if stubbed else contextlib.nullcontext():
        start = now()
        _workload(ctmc_net, mrgp_net)
        return now() - start


def measure() -> dict:
    """Median paired disabled/stubbed ratio; assert data, not verdicts."""
    ctmc_net = build_no_rejuvenation_net(
        PerceptionParameters(n_modules=8, f=1, rejuvenation=False)
    )
    mrgp_net = build_rejuvenation_net(
        PerceptionParameters(n_modules=9, f=1, r=1, rejuvenation=True)
    )

    # Warm both paths (imports, numpy caches) before timing anything,
    # and size a round from the warm pass.
    _timed_pass(True, ctmc_net, mrgp_net)
    warm = _timed_pass(False, ctmc_net, mrgp_net)
    passes = max(1, math.ceil(ROUND_SECONDS / warm))

    # Within a round the modes alternate pass by pass (order flipping
    # each time), so a burst of host noise lands on both sides.
    disabled: list[float] = []
    stubbed: list[float] = []
    for _ in range(ROUNDS):
        totals = {False: 0.0, True: 0.0}
        for index in range(passes):
            for mode in (False, True) if index % 2 == 0 else (True, False):
                totals[mode] += _timed_pass(mode, ctmc_net, mrgp_net)
        disabled.append(totals[False])
        stubbed.append(totals[True])

    ratios = [d / s for d, s in zip(disabled, stubbed)]
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0

    return {
        "manifest": collect_manifest(
            experiment="bench_obs_overhead",
            parameters={
                "rounds": ROUNDS,
                "passes_per_round": passes,
                "budget_pct": BUDGET_PCT,
            },
        ).as_dict(),
        "disabled_s": disabled,
        "stubbed_baseline_s": stubbed,
        "round_overhead_pct": [(ratio - 1.0) * 100.0 for ratio in ratios],
        "overhead_pct": overhead_pct,
        "budget_pct": BUDGET_PCT,
        "noop_span_ns": _noop_span_cost() * 1e9,
    }


def main() -> None:
    results = measure()
    print(json.dumps(results, indent=2))
    if results["overhead_pct"] > results["budget_pct"]:
        raise SystemExit(
            f"disabled-tracing overhead {results['overhead_pct']:.2f}% exceeds "
            f"the {results['budget_pct']:.1f}% budget"
        )


if __name__ == "__main__":
    main()

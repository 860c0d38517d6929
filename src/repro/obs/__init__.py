"""Observability: tracing, metrics, and provenance for the pipeline.

``repro.obs`` makes the pipeline inspectable without changing what it
computes; workloads are timed by the repository benchmark,
``perfbench/run.py``, not here.  It provides

* a context-local **span tracer** (:func:`span`, :func:`tracing`)
  threaded through state-space generation, the CTMC/MRGP solvers, the
  sweep engine, the solver cache, and the verification runner — spans
  survive the ``ProcessPoolExecutor`` boundary and reassemble into one
  deterministic tree;
* a **metrics registry** (:func:`counter`, :func:`gauge`,
  :func:`histogram`) of states explored, vanishing markings eliminated,
  linear-solve residuals, cache tier traffic, and simulation events;
* an **injectable monotonic clock** (:mod:`repro.obs.clock`) so traces
  and benchmark timings are reproducible under test;
* a :class:`RunManifest` pinning the code, environment, and policy that
  produced any trace or benchmark artifact;
* a live **event stream** (:mod:`repro.obs.events`) emitting sweep /
  cache / monitor lifecycle events as JSON Lines while a run executes;
* **exporters** (:mod:`repro.obs.export`) to Chrome trace-event JSON
  (Perfetto-loadable, worker lanes as separate pids) and OpenMetrics
  exposition text;
* an **alerting layer** (:mod:`repro.obs.watch`): streaming detectors
  (sequential e-value reliability drift, multi-window SLO burn rate,
  monitor-consistency) folded over the event firehose into a
  deterministic alert lifecycle — see ``repro watch`` and the serve
  ``/alerts`` endpoint.

Tracing is off by default and its disabled path is a single context-var
read returning a shared no-op span — the CI overhead budget holds the
instrumented pipeline within 5 % of an uninstrumented baseline.  See
``docs/OBSERVABILITY.md`` and the ``repro trace`` CLI subcommand.
"""

from repro.obs.clock import (
    ManualClock,
    MonotonicClock,
    active_clock,
    clock_from_settings,
    clock_settings,
    now,
    set_clock,
    use_clock,
)
from repro.obs.events import (
    EventStream,
    current_stream,
    emit,
    event_stream,
    events_active,
    normalize_events,
    open_event_stream,
)
from repro.obs.export import chrome_trace, metric_name, openmetrics
from repro.obs.flamegraph import render_flamegraph, self_time_table
from repro.obs.manifest import RunManifest, collect_manifest
from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    counter,
    gauge,
    histogram,
    registry_override,
)
from repro.obs.tracer import (
    NULL_SPAN,
    SpanRecord,
    TraceNode,
    Tracer,
    build_tree,
    current_tracer,
    span,
    trace_settings,
    tracing,
    tracing_active,
)

__all__ = [
    "EventStream",
    "ManualClock",
    "MetricsRegistry",
    "MonotonicClock",
    "NULL_SPAN",
    "RunManifest",
    "SpanRecord",
    "TraceNode",
    "Tracer",
    "active_clock",
    "active_registry",
    "build_tree",
    "chrome_trace",
    "clock_from_settings",
    "clock_settings",
    "collect_manifest",
    "counter",
    "current_stream",
    "current_tracer",
    "emit",
    "event_stream",
    "events_active",
    "gauge",
    "histogram",
    "metric_name",
    "normalize_events",
    "now",
    "open_event_stream",
    "openmetrics",
    "registry_override",
    "render_flamegraph",
    "self_time_table",
    "set_clock",
    "span",
    "trace_settings",
    "tracing",
    "tracing_active",
    "use_clock",
]

"""Command-line interface to the library.

Usage (also available as ``python -m repro``)::

    repro analyze --six                        # E[R] + state breakdown
    repro serve --port 8080 --workers 4        # reliability-as-a-service
    repro top --url http://127.0.0.1:8080      # live operations console
    repro analyze --versions 9 --f 2 --rejuvenation
    repro sweep --six --parameter p_prime --values 0.1,0.3,0.5,0.8
    repro experiments fig3 fig4a               # regenerate paper artifacts
    repro experiments --list
    repro trace table2-defaults --jobs 4       # profile a run (flamegraph)
    repro trace table2-defaults --export chrome --out trace.json  # Perfetto
    repro verify --all                         # lint + certify every net
    repro simulate --six --horizon 100000      # Monte-Carlo cross-check
    repro monitor --six --attack               # rejuvenation-policy shootout
    repro dot --six                            # Graphviz of the DSPN
    repro pnml --four                          # PNML of the clockless net

Every command accepts the Table II parameter overrides
(``--p``, ``--p-prime``, ``--alpha``, ``--mttc``, ``--mttf``, ``--mttr``,
``--interval``, ``--rejuvenation-time``).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.errors import ReproError
from repro.perception.parameters import PerceptionParameters


def _add_parameter_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--four", action="store_true",
        help="the paper's 4-version configuration (no rejuvenation)",
    )
    group.add_argument(
        "--six", action="store_true",
        help="the paper's 6-version configuration (with rejuvenation)",
    )
    parser.add_argument("--versions", type=int, help="number of ML module versions")
    parser.add_argument("--f", type=int, default=1, help="tolerated compromised modules")
    parser.add_argument("--r", type=int, default=1, help="simultaneous rejuvenations")
    parser.add_argument(
        "--rejuvenation", action="store_true",
        help="enable the rejuvenation clock (implies 2f+r+1 voting)",
    )
    parser.add_argument("--p", type=float, help="healthy-module inaccuracy")
    parser.add_argument("--p-prime", type=float, help="compromised-module inaccuracy")
    parser.add_argument("--alpha", type=float, help="error dependency factor")
    parser.add_argument("--mttc", type=float, help="mean time to compromise (s)")
    parser.add_argument("--mttf", type=float, help="mean time to failure (s)")
    parser.add_argument("--mttr", type=float, help="mean time to repair (s)")
    parser.add_argument("--interval", type=float, help="rejuvenation interval (s)")
    parser.add_argument(
        "--rejuvenation-time", type=float, help="rejuvenation time per module (s)"
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep grids (results identical to serial)",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache", action="store_true",
        help="persist solver results on disk (~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    cache_group.add_argument(
        "--no-cache", action="store_true",
        help="disable solver-result caching entirely",
    )
    _add_events_argument(parser)


def _add_events_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--events", metavar="FILE",
        help="stream lifecycle events (sweep/cache/monitor) to FILE as "
        "live JSON Lines while the command runs",
    )


def _events_scope(args: argparse.Namespace):
    """The ``--events FILE`` stream for this command (or a no-op)."""
    from contextlib import nullcontext

    from repro.obs import open_event_stream

    path = getattr(args, "events", None)
    return open_event_stream(path) if path else nullcontext()


def _parameters_from(args: argparse.Namespace) -> PerceptionParameters:
    overrides = {}
    for attribute, name in (
        ("p", "p"),
        ("p_prime", "p_prime"),
        ("alpha", "alpha"),
        ("mttc", "mttc"),
        ("mttf", "mttf"),
        ("mttr", "mttr"),
        ("interval", "rejuvenation_interval"),
        ("rejuvenation_time", "rejuvenation_time_per_module"),
    ):
        value = getattr(args, attribute, None)
        if value is not None:
            overrides[name] = value

    if args.four:
        return PerceptionParameters.four_version_defaults(**overrides)
    if args.six:
        return PerceptionParameters.six_version_defaults(**overrides)
    if args.versions is None:
        raise SystemExit(
            "choose a configuration: --four, --six, or --versions N [...]"
        )
    return PerceptionParameters(
        n_modules=args.versions,
        f=args.f,
        r=args.r,
        rejuvenation=args.rejuvenation,
        **overrides,
    )


def _command_analyze(args: argparse.Namespace) -> int:
    from repro.perception.architecture import PerceptionSystem

    system = PerceptionSystem(_parameters_from(args))
    result = system.analyze()
    parameters = system.parameters
    mode = "rejuvenation" if parameters.rejuvenation else "no rejuvenation"
    print(
        f"{parameters.n_modules}-version system ({mode}), f={parameters.f}"
        + (f", r={parameters.r}" if parameters.rejuvenation else "")
        + f", voting threshold {parameters.voting_scheme.threshold}"
    )
    print(f"E[R_sys] = {result.expected_reliability:.7f}")
    print()
    print("top states (healthy, compromised, unavailable):")
    for state, probability, reliability in result.top_states(args.top):
        print(
            f"  ({state.healthy}, {state.compromised}, {state.unavailable})"
            f"  pi = {probability:.5f}  R = {reliability:.5f}"
        )
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import sweep_parameter
    from repro.utils.tables import render_table

    _apply_cache_flags(args)
    values = [float(v) for v in args.values.split(",")]
    with _events_scope(args):
        result = sweep_parameter(
            _parameters_from(args), args.parameter, values, jobs=args.jobs
        )
    print(
        render_table(
            [args.parameter, "E[R]"],
            result.as_rows(),
        )
    )
    best_value, best_reliability = result.argmax()
    print(f"best: {args.parameter} = {best_value:g} -> E[R] = {best_reliability:.6f}")
    return 0


def _apply_cache_flags(args: argparse.Namespace) -> None:
    """Apply ``--cache``/``--no-cache`` to the process-wide solver cache."""
    from repro.engine import configure_cache, default_cache_directory

    if getattr(args, "cache", False):
        configure_cache(enabled=True, directory=default_cache_directory())
    elif getattr(args, "no_cache", False):
        configure_cache(enabled=False)


def _command_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENT_IDS, run_experiment

    if args.list:
        for experiment_id in EXPERIMENT_IDS:
            print(experiment_id)
        return 0
    _apply_cache_flags(args)
    ids = args.ids or list(EXPERIMENT_IDS)
    with _events_scope(args):
        for experiment_id in ids:
            print(
                run_experiment(experiment_id, jobs=args.jobs).render(
                    plot=not args.no_plot
                )
            )
            print()
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENT_IDS
    from repro.verify.runner import verify_experiments

    if args.list:
        for experiment_id in EXPERIMENT_IDS:
            print(experiment_id)
        return 0
    _apply_cache_flags(args)
    ids = args.ids or None
    if args.all and args.ids:
        raise SystemExit("--all and explicit experiment ids are mutually exclusive")
    with _events_scope(args):
        report = verify_experiments(
            ids,
            jobs=args.jobs,
            tolerance=args.tolerance,
            oracles=not args.no_oracles,
        )
    print(report.render())
    return 0 if report.ok else 1


def _command_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.engine import cache_override, default_cache_directory
    from repro.experiments.registry import EXPERIMENT_IDS, run_experiment
    from repro.obs import (
        ManualClock,
        MonotonicClock,
        chrome_trace,
        collect_manifest,
        openmetrics,
        registry_override,
        render_flamegraph,
        self_time_table,
        span,
        tracing,
        use_clock,
    )

    if args.list:
        for experiment_id in EXPERIMENT_IDS:
            print(experiment_id)
        return 0
    if not args.experiment:
        raise SystemExit("choose an experiment id (repro trace --list)")

    clock = ManualClock() if args.manual_clock else MonotonicClock()
    unit = "ticks" if args.manual_clock else "s"
    # Tracing runs uncached by default: per-process cache-hit patterns
    # would make the span tree depend on jobs and on prior runs, and a
    # profile full of cache hits measures the cache, not the solvers.
    cache_directory = default_cache_directory() if args.cache else None
    with registry_override() as registry, cache_override(
        enabled=bool(args.cache), directory=cache_directory
    ), use_clock(clock), tracing() as tracer, _events_scope(args):
        manifest = collect_manifest(experiment=args.experiment, jobs=args.jobs)
        with span("experiment", experiment=args.experiment):
            run_experiment(args.experiment, jobs=args.jobs)

    roots = tracer.roots()
    metrics = registry.snapshot()
    if args.metrics:
        Path(args.metrics).write_text(openmetrics(registry))
    if args.export == "chrome":
        payload = json.dumps(
            chrome_trace(tracer, unit=unit, manifest=manifest.as_dict()),
            indent=2,
            sort_keys=True,
        )
        if args.out:
            Path(args.out).write_text(payload + "\n")
        else:
            print(payload)
        return 0
    if args.json:
        payload = json.dumps(
            {
                "manifest": manifest.as_dict(),
                "unit": unit,
                "trace": [root.as_dict() for root in roots],
                "normalized": [root.normalized() for root in roots],
                "metrics": metrics,
            },
            indent=2,
            sort_keys=True,
        )
        if args.out:
            Path(args.out).write_text(payload + "\n")
        else:
            print(payload)
        return 0

    lines = [
        f"repro trace {args.experiment} "
        f"(jobs={args.jobs}, cache {'on' if args.cache else 'off'}, "
        f"clock={manifest.clock})",
        f"git {manifest.git_sha or 'unknown'} · python "
        f"{manifest.python_version} · numpy {manifest.numpy_version}",
        "",
        "== self-time summary ==",
        self_time_table(roots, unit=unit),
        "",
        "== flamegraph ==",
        render_flamegraph(
            roots, width=args.width, unit=unit, max_depth=args.depth
        ),
    ]
    if metrics["counters"] or metrics["histograms"]:
        lines.extend(["", "== metrics =="])
        for name, value in metrics["counters"].items():
            lines.append(f"  {name} = {value:g}")
        for name, summary in metrics["histograms"].items():
            lines.append(
                f"  {name}: n={summary['count']} mean={summary['mean']:.3e} "
                f"max={summary['max']:.3e}"
            )
    output = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(output + "\n")
    else:
        print(output)
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    if args.batch:
        return _command_simulate_batch(args)

    from repro.perception.architecture import PerceptionSystem

    system = PerceptionSystem(_parameters_from(args))
    analytic = system.expected_reliability()
    estimate = system.simulate(
        horizon=args.horizon,
        warmup=args.warmup,
        replications=args.replications,
        seed=args.seed,
    )
    low, high = estimate.interval
    print(f"analytic E[R]  = {analytic:.6f}")
    print(
        f"simulated E[R] = {estimate.mean:.6f}  "
        f"(95% CI [{low:.6f}, {high:.6f}], {estimate.replications} replications)"
    )
    print(f"analytic value {'inside' if estimate.covers(analytic) else 'outside'} the interval")
    return 0


def _command_simulate_batch(args: argparse.Namespace) -> int:
    from repro.perception.evaluation import evaluate
    from repro.simulation import BatchConfig, BatchMonitorConfig, simulate_batch
    from repro.verify.oracles import wilson_interval

    parameters = _parameters_from(args)
    period = args.request_period
    rounds = max(1, round(args.horizon / period))
    warmup_rounds = min(rounds - 1, max(0, round(args.warmup / period)))
    watch_enabled = bool(args.watch or args.alerts)
    config = BatchConfig(
        parameters=parameters,
        groups=args.groups,
        rounds=rounds,
        warmup_rounds=warmup_rounds,
        request_period=period,
        seed=args.seed if args.seed is not None else 0,
        chunk_size=args.chunk_size,
        monitor=(
            BatchMonitorConfig(mode=args.monitor) if args.monitor else None
        ),
        record_round_totals=watch_enabled,
    )
    if args.stationary_init:
        config = config.with_stationary_init()
    analytic = evaluate(parameters).expected_reliability
    watcher = None
    with _events_scope(args):
        report = simulate_batch(config, jobs=args.jobs)
        if watch_enabled:
            watcher = _watch_batch(config, report, analytic, args)
    successes = report.requests - report.errors
    low, high = wilson_interval(successes, report.requests)
    print(
        f"batch: {report.groups} groups x {rounds} rounds "
        f"({report.requests:,} measured requests, jobs={report.jobs})"
    )
    print(f"analytic E[R]  = {analytic:.6f}  (Eq. 1)")
    print(
        f"batch E[R]     = {report.reliability_safe_skip:.6f}  "
        f"(95% Wilson [{low:.6f}, {high:.6f}])"
    )
    print(
        f"throughput     = {report.throughput:,.0f} requests/s "
        f"({report.wall_seconds:.2f} s wall)"
    )
    if report.monitor is not None:
        summary = report.monitor.summary()
        print(
            f"monitor        = {summary.compromises} compromises, "
            f"{summary.detected} detected, {summary.false_alarms} false "
            f"alarms, {summary.triggers} rejuvenations "
            f"({summary.false_triggers} false)"
        )
    if watcher is not None:
        counts = watcher.log.counts()
        target = watcher.config.target
        print(
            f"watch          = {counts['fired']} fired, "
            f"{counts['resolved']} resolved, {counts['active']} active "
            f"({watcher.windows_seen} windows vs target {target:.6f}, "
            f"alpha {watcher.config.alpha:g})"
        )
        for alert in watcher.log.active():
            print(
                f"  ALERT {alert.key} [{alert.severity}] "
                f"value {alert.last_value:.4f} vs threshold "
                f"{alert.last_threshold:.4f} since t={alert.since:g}s"
            )
        if args.alerts:
            with open(args.alerts, "w", encoding="utf-8") as sink:
                for line in watcher.alert_lines():
                    sink.write(line + "\n")
            print(f"alert stream written to {args.alerts}")
    return 0


def _watch_batch(config, report, analytic: float, args: argparse.Namespace):
    """Evaluate the watch detectors over a finished batch report.

    Runs round-synchronously over the chunk-merged per-round totals —
    jobs-invariant by construction — and mirrors the plan, the window
    stream, and every alert into the ``--events`` stream so ``repro
    watch`` can replay the run offline.
    """
    from repro.obs.events import emit as emit_event
    from repro.obs.watch import Watcher, batch_watch_config, batch_windows

    target = args.watch_target if args.watch_target is not None else analytic
    watch_config = batch_watch_config(
        config,
        target=target,
        alpha=args.watch_alpha,
        block=args.watch_block,
    )
    watcher = Watcher(watch_config)
    plan = watcher.plan()
    emit_event(plan["event"], **{k: v for k, v in plan.items() if k != "event"})
    for window in batch_windows(config, report, block=watch_config.block):
        emit_event("sim.batch.window", **window)
        for alert in watcher.observe_window(**window):
            emit_event(
                alert["event"],
                **{k: v for k, v in alert.items() if k != "event"},
            )
    return watcher


def _command_watch(args: argparse.Namespace) -> int:
    import json

    from repro.obs.watch import replay_events

    def parsed_lines():
        with open(args.events, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)

    watcher = replay_events(parsed_lines(), target=args.target)
    counts = watcher.log.counts()
    print(
        f"watch: {watcher.events_seen} events replayed, "
        f"{watcher.windows_seen} windows"
    )
    print(
        f"alerts: {counts['fired']} fired, {counts['resolved']} resolved, "
        f"{counts['active']} active, {counts['pending']} pending"
    )
    for event in watcher.log.events:
        print(
            f"  t={event['time']:>10g}  {event['event']:<14s} "
            f"{event['key']:<22s} [{event['severity']}] "
            f"value={event['value']:.4f} threshold={event['threshold']:.4f}"
        )
    for certificate in watcher.certificates():
        print(f"certificate[{certificate['kind']}]: {certificate['guarantee']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            for line in watcher.alert_lines():
                sink.write(line + "\n")
        print(f"alert stream written to {args.out}")
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    from repro.perception.metrics import (
        exact_rate_elasticities,
        expected_misperceptions,
        mean_time_to_quorum_loss,
        quorum_loss_probability,
    )

    parameters = _parameters_from(args)
    mean_loss = mean_time_to_quorum_loss(parameters)
    print(f"mean time to first quorum loss : {mean_loss:,.0f} s "
          f"({mean_loss / 3600:.1f} h)")
    print(
        f"P(quorum lost within {args.mission:.0f} s)  : "
        f"{quorum_loss_probability(parameters, args.mission):.6f}"
    )
    errors = expected_misperceptions(parameters, args.mission, args.request_rate)
    print(
        f"expected misperceptions in the mission "
        f"({args.request_rate:g} req/s): {errors:.2f}"
    )
    print("exact elasticities of E[R]:")
    for name, value in exact_rate_elasticities(parameters).items():
        print(f"  {name:5s}: {value:+.5f} % per %")
    return 0


def _command_monitor(args: argparse.Namespace) -> int:
    from repro.experiments.monitor import compare_policies
    from repro.monitor.policies import POLICY_NAMES
    from repro.utils.tables import render_table

    policies = (
        [name.strip() for name in args.policy.split(",")]
        if args.policy
        else list(POLICY_NAMES)
    )
    unknown = [name for name in policies if name not in POLICY_NAMES]
    if unknown:
        raise SystemExit(
            f"unknown policy {unknown[0]!r}; valid: {', '.join(POLICY_NAMES)}"
        )
    with _events_scope(args):
        runs = compare_policies(
            _parameters_from(args),
            policies=policies,
            duration=args.horizon,
            warmup=args.warmup,
            request_period=args.request_period,
            seed=args.seed,
            attack=args.attack,
            threshold_bound=args.threshold_bound,
            detection_threshold=args.detection_threshold,
        )
    print(
        render_table(
            ["scenario", "policy", "E[R]", "rejuvenations", "false-trigger rate"],
            [
                [
                    run.scenario,
                    run.policy,
                    run.reliability,
                    run.summary.triggers,
                    run.summary.false_trigger_rate,
                ]
                for run in runs
            ],
        )
    )
    for run in runs:
        print()
        print(f"-- {run.scenario} / {run.policy} "
              f"(seed {'unseeded' if run.report.seed is None else run.report.seed})")
        print(run.summary.render())
    return 0


def _command_provision(args: argparse.Namespace) -> int:
    from repro.analysis.provisioning import provisioning_options
    from repro.utils.tables import render_table

    base = _parameters_from(args)
    options = provisioning_options(
        base,
        target_reliability=args.target,
        module_cost=args.module_cost,
        rejuvenation_cost=args.rejuvenation_cost,
        max_modules=args.max_modules,
        max_f=args.max_f,
    )
    if not options:
        print(
            f"no configuration within N <= {args.max_modules}, f <= {args.max_f} "
            f"reaches E[R] >= {args.target}"
        )
        return 1
    print(
        render_table(
            ["configuration", "E[R]", "cost"],
            [[o.description, o.reliability, o.cost] for o in options[: args.top]],
        )
    )
    print(f"cheapest: {options[0].description} at cost {options[0].cost:g}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ReliabilityService, ServeConfig

    _apply_cache_flags(args)
    service = ReliabilityService(
        ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            executor=args.executor,
            queue_limit=args.queue_limit,
            max_jobs=args.max_jobs,
            rate=args.rate,
            burst=args.burst,
            events=args.events,
            watch=not args.no_watch,
            slo_latency=args.slo_latency,
            slo_objective=args.slo_objective,
        )
    )

    async def run() -> None:
        host, port = await service.start()
        print(f"repro serve listening on http://{host}:{port}", flush=True)
        await service.serve_until_cancelled()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("repro serve: shut down", flush=True)
    return 0


def _command_top(args: argparse.Namespace) -> int:
    import sys

    from repro.obs.top import follow_file, follow_url, render_path

    if bool(args.events) == bool(args.url):
        raise SystemExit("give exactly one of --events FILE or --url URL")
    options = {"window": args.window, "bucket": args.bucket}
    if args.url:
        import asyncio
        from urllib.parse import urlsplit

        split = urlsplit(args.url if "//" in args.url else f"http://{args.url}")
        if split.hostname is None or split.port is None:
            raise SystemExit(f"need host and port in --url, got {args.url!r}")
        try:
            asyncio.run(
                follow_url(
                    split.hostname,
                    split.port,
                    out=sys.stdout,
                    width=args.width,
                    **options,
                )
            )
        except KeyboardInterrupt:
            pass
        return 0
    if not args.follow:
        print(render_path(args.events, width=args.width, **options))
        return 0
    try:
        follow_file(
            args.events,
            out=sys.stdout,
            width=args.width,
            interval=args.interval,
            **options,
        )
    except KeyboardInterrupt:
        pass
    return 0


def _command_dot(args: argparse.Namespace) -> int:
    from repro.perception.architecture import PerceptionSystem

    print(PerceptionSystem(_parameters_from(args)).to_dot())
    return 0


def _command_pnml(args: argparse.Namespace) -> int:
    from repro.perception.no_rejuvenation import build_no_rejuvenation_net
    from repro.petri.pnml import to_pnml

    parameters = _parameters_from(args)
    if parameters.rejuvenation:
        raise SystemExit(
            "PNML export supports the clockless net only (the rejuvenation "
            "net uses marking-dependent weights); use --four or drop "
            "--rejuvenation"
        )
    print(to_pnml(build_no_rejuvenation_net(parameters)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="N-version perception-system reliability models (DSN 2023)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser(
        "analyze", help="compute E[R_sys] for a configuration"
    )
    _add_parameter_arguments(analyze)
    analyze.add_argument("--top", type=int, default=8, help="states to display")
    analyze.set_defaults(handler=_command_analyze)

    sweep = subparsers.add_parser("sweep", help="sweep one parameter")
    _add_parameter_arguments(sweep)
    _add_engine_arguments(sweep)
    sweep.add_argument("--parameter", required=True, help="parameter to vary")
    sweep.add_argument(
        "--values", required=True, help="comma-separated grid, e.g. 0.1,0.3,0.5"
    )
    sweep.set_defaults(handler=_command_sweep)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    experiments.add_argument("--list", action="store_true", help="list ids and exit")
    _add_engine_arguments(experiments)
    experiments.add_argument(
        "--no-plot", action="store_true", help="suppress ASCII plots"
    )
    experiments.set_defaults(handler=_command_experiments)

    trace = subparsers.add_parser(
        "trace",
        help="run one experiment under span tracing and render a "
        "self-time table and text flamegraph (with a provenance manifest)",
    )
    trace.add_argument(
        "experiment", nargs="?", help="experiment id (see --list)"
    )
    trace.add_argument("--list", action="store_true", help="list ids and exit")
    trace.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes; the normalized span tree is identical "
        "for every value",
    )
    trace.add_argument(
        "--cache", action="store_true",
        help="trace with the solver cache enabled (default: off, so the "
        "span tree is deterministic and measures real solver cost)",
    )
    trace.add_argument(
        "--manual-clock", action="store_true",
        help="use the injectable manual clock: timings count clock reads "
        "instead of seconds, making the whole trace byte-reproducible",
    )
    trace_format = trace.add_mutually_exclusive_group()
    trace_format.add_argument(
        "--json", action="store_true",
        help="emit the trace, metrics, and manifest as JSON",
    )
    trace_format.add_argument(
        "--export", choices=("chrome",),
        help="emit the trace in an interchange format: 'chrome' is "
        "trace-event JSON loadable in Perfetto or chrome://tracing, "
        "with sweep workers as separate processes",
    )
    trace.add_argument(
        "--metrics", metavar="FILE",
        help="additionally dump the run's metrics registry to FILE as "
        "OpenMetrics exposition text",
    )
    _add_events_argument(trace)
    trace.add_argument(
        "--out", metavar="FILE", help="write the output to FILE instead of stdout"
    )
    trace.add_argument(
        "--depth", type=int, default=None, help="flamegraph depth limit"
    )
    trace.add_argument(
        "--width", type=int, default=40, help="flamegraph bar width (chars)"
    )
    trace.set_defaults(handler=_command_trace)

    verify = subparsers.add_parser(
        "verify",
        help="lint + certify the experiment nets and run the statistical "
        "oracles (exit 1 on any failure)",
    )
    verify.add_argument(
        "ids", nargs="*", help="experiment ids to verify (default: all)"
    )
    verify.add_argument(
        "--all", action="store_true",
        help="verify the whole registry (the default; spelled out for CI)",
    )
    verify.add_argument("--list", action="store_true", help="list ids and exit")
    verify.add_argument(
        "--tolerance", type=float, default=1e-9,
        help="certificate residual tolerance (default 1e-9)",
    )
    verify.add_argument(
        "--no-oracles", action="store_true",
        help="skip the simulation-backed statistical oracles",
    )
    _add_engine_arguments(verify)
    verify.set_defaults(handler=_command_verify)

    simulate = subparsers.add_parser(
        "simulate", help="Monte-Carlo cross-check of the analytic result"
    )
    _add_parameter_arguments(simulate)
    simulate.add_argument("--horizon", type=float, default=100000.0)
    simulate.add_argument("--warmup", type=float, default=1000.0)
    simulate.add_argument("--replications", type=int, default=8)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument(
        "--batch", action="store_true",
        help="use the vectorized batch runtime (thousands of groups on a "
        "round grid) instead of the event loop",
    )
    simulate.add_argument(
        "--groups", type=int, default=4096,
        help="independent replica groups simulated by --batch",
    )
    simulate.add_argument(
        "--request-period", type=float, default=0.5,
        help="seconds between perception requests (--batch round grid)",
    )
    simulate.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for --batch (results are jobs-invariant)",
    )
    simulate.add_argument(
        "--chunk-size", type=int, default=1024,
        help="groups per schedule chunk (--batch; part of the trajectory "
        "identity, not a tuning knob)",
    )
    simulate.add_argument(
        "--monitor", choices=["observe", "targeted", "threshold"],
        help="attach the online health monitor to the --batch run",
    )
    simulate.add_argument(
        "--stationary-init", action="store_true",
        help="draw initial module states from the analytic stationary "
        "census instead of all-healthy (--batch)",
    )
    simulate.add_argument(
        "--watch", action="store_true",
        help="run the repro.obs.watch detectors over the --batch stream "
        "(reliability drift vs the analytic Eq. 1 target, monitor "
        "consistency); alerts are jobs-invariant",
    )
    simulate.add_argument(
        "--watch-target", type=float, default=None, metavar="R",
        help="drift-detector success target (default: the analytic Eq. 1 "
        "value of the configuration)",
    )
    simulate.add_argument(
        "--watch-alpha", type=float, default=1e-3, metavar="A",
        help="drift false-alarm budget: P(ever firing on a clean stream) "
        "<= A (default 1e-3)",
    )
    simulate.add_argument(
        "--watch-block", type=int, default=32, metavar="K",
        help="rounds per detector window (default 32)",
    )
    simulate.add_argument(
        "--alerts", metavar="FILE",
        help="write the deterministic alert JSONL (watch.plan line + "
        "alert events) to FILE; implies --watch",
    )
    _add_events_argument(simulate)
    simulate.set_defaults(handler=_command_simulate)

    watch = subparsers.add_parser(
        "watch",
        help="replay a recorded --events JSONL through the watch "
        "detectors and render/export the alert timeline",
    )
    watch.add_argument(
        "--events", metavar="FILE", required=True,
        help="recorded events JSONL (from simulate --batch --watch "
        "--events or repro serve --events)",
    )
    watch.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the regenerated alert JSONL to FILE (byte-identical "
        "to the run's --alerts file for the same configuration)",
    )
    watch.add_argument(
        "--target", type=float, default=None, metavar="R",
        help="override the drift target from the stream's watch.plan "
        "(hold a degraded stream against the clean analytic value)",
    )
    watch.set_defaults(handler=_command_watch)

    metrics = subparsers.add_parser(
        "metrics",
        help="time-domain metrics: quorum loss, mission risk, elasticities "
        "(clockless configurations)",
    )
    _add_parameter_arguments(metrics)
    metrics.add_argument(
        "--mission", type=float, default=7200.0, help="mission duration (s)"
    )
    metrics.add_argument(
        "--request-rate", type=float, default=10.0, help="perception requests per second"
    )
    metrics.set_defaults(handler=_command_metrics)

    monitor = subparsers.add_parser(
        "monitor",
        help="compare rejuvenation policies under runtime monitoring "
        "(equal budgets, one seed)",
    )
    _add_parameter_arguments(monitor)
    monitor.add_argument(
        "--policy",
        help="comma-separated policy names (default: all of "
        "periodic,threshold,targeted)",
    )
    monitor.add_argument("--horizon", type=float, default=20000.0)
    monitor.add_argument("--warmup", type=float, default=0.0)
    monitor.add_argument(
        "--request-period", type=float, default=1.0,
        help="seconds between perception requests",
    )
    monitor.add_argument("--seed", type=int, default=2023)
    monitor.add_argument(
        "--attack", action="store_true",
        help="also run the periodic-burst attack scenario",
    )
    monitor.add_argument(
        "--threshold-bound", type=float, default=0.9,
        help="posterior bound of the threshold policy",
    )
    monitor.add_argument(
        "--detection-threshold", type=float, default=0.5,
        help="posterior bound above which a module counts as flagged",
    )
    _add_events_argument(monitor)
    monitor.set_defaults(handler=_command_monitor)

    provision = subparsers.add_parser(
        "provision", help="cheapest configuration meeting a reliability target"
    )
    _add_parameter_arguments(provision)
    provision.add_argument(
        "--target", type=float, required=True, help="minimum acceptable E[R]"
    )
    provision.add_argument("--module-cost", type=float, default=1.0)
    provision.add_argument("--rejuvenation-cost", type=float, default=0.5)
    provision.add_argument("--max-modules", type=int, default=9)
    provision.add_argument("--max-f", type=int, default=2)
    provision.add_argument("--top", type=int, default=8, help="options to display")
    provision.set_defaults(handler=_command_provision)

    serve = subparsers.add_parser(
        "serve",
        help="run the async reliability service (solve/verify/sweep over "
        "HTTP+JSONL with coalescing and back-pressure)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 = pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="solver worker processes (default: all CPUs)",
    )
    serve.add_argument(
        "--executor", choices=("process", "thread"), default="process",
        help="worker pool kind; 'thread' keeps solves in-process "
        "(benchmarks, constrained sandboxes)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="in-flight solver computations before requests get 503 "
        "back-pressure (default 64)",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=16, metavar="N",
        help="live async sweep jobs before /v1/sweep answers 503",
    )
    serve.add_argument(
        "--rate", type=float, default=0.0, metavar="R",
        help="per-client request rate limit in req/s (0 = unlimited)",
    )
    serve.add_argument(
        "--burst", type=float, default=None, metavar="B",
        help="token-bucket burst capacity (default 2x --rate)",
    )
    serve.add_argument(
        "--slo-latency", type=float, default=0.5, metavar="S",
        help="per-request latency budget in seconds for SLO burn-rate "
        "alerting (default 0.5)",
    )
    serve.add_argument(
        "--slo-objective", type=float, default=0.99, metavar="R",
        help="fraction of requests that must meet --slo-latency "
        "(default 0.99; error budget = 1 - R)",
    )
    serve.add_argument(
        "--no-watch", action="store_true",
        help="disable the alert watcher (GET /alerts answers enabled=false)",
    )
    cache_flags = serve.add_mutually_exclusive_group()
    cache_flags.add_argument(
        "--cache", action="store_true",
        help="persist solver results on disk (~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    cache_flags.add_argument(
        "--no-cache", action="store_true",
        help="disable solver-result caching in the workers",
    )
    _add_events_argument(serve)
    serve.set_defaults(handler=_command_serve)

    top = subparsers.add_parser(
        "top",
        help="terminal operations console over an events JSONL stream "
        "or a running server",
    )
    top.add_argument(
        "--events", metavar="FILE", default=None,
        help="JSONL event stream to read (a --events file)",
    )
    top.add_argument(
        "--url", default=None,
        help="server base URL; tails its GET /events stream live",
    )
    top.add_argument(
        "--follow", action="store_true",
        help="keep tailing --events FILE and redrawing (default: one frame)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="redraw interval in seconds when following",
    )
    top.add_argument(
        "--width", type=int, default=72, help="frame width in columns"
    )
    top.add_argument(
        "--window", type=float, default=60.0,
        help="trailing throughput window in seconds",
    )
    top.add_argument(
        "--bucket", type=float, default=5.0,
        help="sparkline time-bucket width in seconds",
    )
    top.set_defaults(handler=_command_top)

    dot = subparsers.add_parser("dot", help="emit Graphviz DOT of the DSPN")
    _add_parameter_arguments(dot)
    dot.set_defaults(handler=_command_dot)

    pnml = subparsers.add_parser("pnml", help="emit PNML of the clockless net")
    _add_parameter_arguments(pnml)
    pnml.set_defaults(handler=_command_pnml)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

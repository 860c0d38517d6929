"""The 1M-request batch firehose: its throughput floor and watch budget."""

from __future__ import annotations


class TestSimBatchWorkload:
    """The batch firehose meets its advertised request rate."""

    def test_simulates_a_million_requests_over_1e6_per_second(self):
        from repro.obs.metrics import registry_override
        from repro.simulation import simulate_batch
        from repro.simulation.batch.runtime import sim_batch_config

        config = sim_batch_config()
        assert config.groups * config.rounds >= 1_000_000
        with registry_override():
            report = simulate_batch(config)
        assert report.requests == config.groups * config.rounds
        assert report.throughput >= 1.0e6, (
            f"the firehose ran at {report.throughput:,.0f} requests/s, "
            "below the 1e6 acceptance bar"
        )


class TestWatchFirehoseWorkload:
    """The watched firehose and its overhead budget."""

    def test_watch_fold_is_a_rounding_error_next_to_the_simulation(self):
        """The detector fold over the 1M-request report must cost well
        under the 5 % overhead budget the benchmark enforces — it is
        O(rounds/block) windows of plain-float arithmetic against the
        runtime's O(groups x rounds) vectorized work."""
        import dataclasses

        from repro.obs import now
        from repro.obs.metrics import registry_override
        from repro.obs.watch import batch_watch_config, watch_batch_report
        from repro.perception.evaluation import evaluate
        from repro.simulation import simulate_batch
        from repro.simulation.batch.runtime import sim_batch_config

        config = dataclasses.replace(
            sim_batch_config(), record_round_totals=True
        )
        target = evaluate(config.parameters).expected_reliability
        with registry_override():
            start = now()
            report = simulate_batch(config)
            simulate_s = now() - start
        watch_config = batch_watch_config(config, target=target)
        start = now()
        watcher = watch_batch_report(config, report, watch_config)
        fold_s = now() - start
        assert watcher.windows_seen == config.rounds // watch_config.block
        assert watcher.log.events == [], "clean firehose must stay quiet"
        assert fold_s < 0.05 * simulate_s, (
            f"watch fold took {fold_s * 1000:.1f} ms against a "
            f"{simulate_s * 1000:.1f} ms simulation"
        )

    def test_overhead_benchmark_enforces_the_five_percent_budget(self):
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "bench_watch_overhead.py"
        )
        spec = importlib.util.spec_from_file_location(
            "bench_watch_overhead", script
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.BUDGET_PCT == 5.0

"""Doc-freshness: the docs keep naming the surfaces they document."""

from __future__ import annotations

from pathlib import Path

DOCS = Path(__file__).resolve().parents[1] / "docs"


class TestDocFreshness:
    def test_monitoring_doc_covers_batch_workload(self):
        """Doc-freshness: MONITORING.md documents the batch runtime.

        The batch-simulation section must keep naming the benchmark
        workload that times the runtime and the CLI flag that reaches it
        — renaming either without updating the docs fails here.
        """
        doc = (DOCS / "MONITORING.md").read_text()
        assert "## Batch simulation" in doc
        assert "--workload sim-batch" in doc
        assert "--batch" in doc
        assert "test_batch_differential.py" in doc
        assert "test_batch_oracle.py" in doc

    def test_serving_doc_covers_operating_surfaces(self):
        """Doc-freshness: SERVING.md documents the operator surfaces.

        The operating section must keep naming the endpoints, the
        console command, and the fixture its snapshot test pins —
        renaming any of them without updating the docs fails here.
        """
        doc = (DOCS / "SERVING.md").read_text()
        assert "## Operating the service" in doc
        assert "/trace/{id}" in doc
        assert "/monitor" in doc
        assert "repro top" in doc
        assert "tests/obs/fixtures/top_events.jsonl" in doc
        # the screenshot-style frame stays in sync with the golden file
        golden = (
            Path(__file__).resolve().parent / "obs" / "fixtures" / "top_frame.txt"
        ).read_text()
        assert golden.rstrip("\n") in doc

    def test_docs_cover_alerting(self):
        """Doc-freshness: the alerting subsystem is documented end to end.

        OBSERVABILITY.md owns the detector math and replay contract;
        SERVING.md documents the `/alerts` surface and cross-links it;
        MONITORING.md points monitored batch runs at `--watch`.
        Renaming the benchmark, the test file, or the endpoint without
        updating the docs fails here.
        """
        obs = (DOCS / "OBSERVABILITY.md").read_text()
        assert "## Alerting" in obs
        assert "repro watch" in obs
        assert "--workload sim-batch" in obs
        assert "bench_watch_overhead.py" in obs
        assert "test_batch_watch.py" in obs
        assert "Ville" in obs and "Hoeffding" in obs
        serving = (DOCS / "SERVING.md").read_text()
        assert "/alerts" in serving
        assert "OBSERVABILITY.md#alerting" in serving
        assert "serve.alerts.{pending,firing,resolved}" in serving
        monitoring = (DOCS / "MONITORING.md").read_text()
        assert "OBSERVABILITY.md#alerting" in monitoring
        assert "--watch" in monitoring

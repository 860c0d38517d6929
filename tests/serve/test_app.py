"""End-to-end tests of the reliability service over real sockets."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.serve import ReliabilityService, ServeConfig, result_digest
from repro.serve.client import request, stream_lines
from tests.obs.test_export import assert_valid_openmetrics
from tests.serve.conftest import running_service


def fast_config(**overrides) -> ServeConfig:
    defaults = dict(executor="thread", workers=4)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestBasicEndpoints:
    def test_healthz_reports_version_and_occupancy(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                response = await request(host, port, "GET", "/healthz")
                assert response.status == 200
                body = response.json()
                assert body["status"] == "ok"
                assert body["queue_limit"] == 64
                from repro import __version__

                assert body["version"] == __version__

        asyncio.run(go())

    def test_solve_returns_result_fingerprint_digest_manifest(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                response = await request(
                    host, port, "POST", "/v1/solve", payload={"preset": "four"}
                )
                assert response.status == 200
                body = response.json()
                assert body["cache"] == "miss"
                assert 0.0 < body["result"]["expected_reliability"] < 1.0
                assert body["fingerprint"] == body["result"]["fingerprint"]
                assert body["digest"] == result_digest(body["result"])
                assert body["manifest"]["experiment"] == "serve"

        asyncio.run(go())

    def test_second_identical_request_hits_result_cache(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                first = await request(
                    host, port, "POST", "/v1/solve", payload={"preset": "four"}
                )
                second = await request(
                    host, port, "POST", "/v1/solve", payload={"preset": "four"}
                )
                assert first.json()["cache"] == "miss"
                assert second.json()["cache"] == "hit"
                assert second.json()["digest"] == first.json()["digest"]

        asyncio.run(go())

    def test_reward_only_parameter_change_is_not_a_cache_hit(self):
        # p changes E[R] through the Eq. 1 reward without touching the
        # net, so the result cache must distinguish the two specs.
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                low = await request(
                    host, port, "POST", "/v1/solve",
                    payload={"preset": "six", "p": 0.01},
                )
                high = await request(
                    host, port, "POST", "/v1/solve",
                    payload={"preset": "six", "p": 0.14},
                )
                assert low.json()["cache"] == "miss"
                assert high.json()["cache"] == "miss"
                assert high.json()["fingerprint"] == low.json()["fingerprint"]
                a = low.json()["result"]["expected_reliability"]
                b = high.json()["result"]["expected_reliability"]
                assert a > b  # more accurate modules -> higher E[R]

        asyncio.run(go())

    def test_verify_endpoint_returns_certificate(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                response = await request(
                    host, port, "POST", "/v1/verify", payload={"preset": "four"}
                )
                assert response.status == 200
                result = response.json()["result"]
                assert result["lint"]["ok"]
                assert result["certificate"]["passed"]

        asyncio.run(go())

    def test_method_is_rejected_by_solve_and_honoured_by_verify(self):
        # E[R] always runs the "auto" route: a solve spec naming a route
        # is refused rather than cached under a route that never ran.
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                solve = await request(
                    host, port, "POST", "/v1/solve",
                    payload={"preset": "six", "method": "ctmc"},
                )
                assert solve.status == 400
                assert "method" in solve.json()["error"]
                sweep = await request(
                    host, port, "POST", "/v1/sweep",
                    payload={"preset": "six", "method": "ctmc",
                             "parameter": "mttc", "values": [500]},
                )
                assert sweep.status == 400
                verify = await request(
                    host, port, "POST", "/v1/verify",
                    payload={"preset": "four", "method": "ctmc"},
                )
                assert verify.status == 200
                assert verify.json()["result"]["certificate"]["method"] == "ctmc"

        asyncio.run(go())

    def test_routing_errors(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                cases = [
                    ("GET", "/nowhere", None, 404),
                    ("GET", "/v1/solve", None, 405),
                    ("POST", "/healthz", None, 405),
                    ("POST", "/metrics", None, 405),
                    ("POST", "/v1/solve", {"bogus": 1}, 400),
                    ("POST", "/v1/solve", {}, 400),
                    ("GET", "/v1/jobs/job-999999", None, 404),
                ]
                for method, path, payload, expected in cases:
                    response = await request(
                        host, port, method, path, payload=payload
                    )
                    assert response.status == expected, (method, path)

        asyncio.run(go())

    def test_metrics_is_valid_openmetrics(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                await request(
                    host, port, "POST", "/v1/solve", payload={"preset": "four"}
                )
                response = await request(host, port, "GET", "/metrics")
                assert response.status == 200
                assert response.headers["content-type"].startswith(
                    "application/openmetrics-text"
                )
                families = assert_valid_openmetrics(response.body.decode())
                assert families["repro_serve_requests"] == "counter"
                assert families["repro_serve_solve_executed"] == "counter"
                assert families["repro_serve_request_seconds"] == "summary"

        asyncio.run(go())


class TestCoalescing:
    def test_identical_inflight_requests_solve_once(self):
        """The tentpole invariant: k identical in-flight fingerprints
        produce exactly one executed solve."""
        release = threading.Event()
        calls = []

        def slow_worker(spec):
            calls.append(spec)
            release.wait(timeout=10.0)
            return {"expected_reliability": 0.5, "fingerprint": "f" * 64}

        async def go():
            async with running_service(
                fast_config(), workers_table={"solve": slow_worker}
            ) as (service, host, port):
                tasks = [
                    asyncio.create_task(
                        request(
                            host,
                            port,
                            "POST",
                            "/v1/solve",
                            payload={"preset": "four"},
                        )
                    )
                    for _ in range(12)
                ]
                while not calls:  # leader reached the worker
                    await asyncio.sleep(0.01)
                release.set()
                responses = await asyncio.gather(*tasks)
                sources = sorted(r.json()["cache"] for r in responses)
                assert len(calls) == 1
                assert sources.count("miss") == 1
                assert sources.count("coalesced") == 11
                counters = {
                    name: metric.value
                    for name, metric in service.registry.counters.items()
                }
                assert counters["serve.solve.executed"] == 1
                assert counters["serve.coalesced"] == 11

        asyncio.run(go())

    def test_different_specs_do_not_coalesce(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                responses = await asyncio.gather(
                    request(
                        host, port, "POST", "/v1/solve",
                        payload={"preset": "four"},
                    ),
                    request(
                        host, port, "POST", "/v1/solve",
                        payload={"preset": "four", "mttc": 777.0},
                    ),
                )
                fingerprints = {r.json()["fingerprint"] for r in responses}
                assert len(fingerprints) == 2

        asyncio.run(go())

    def test_solve_and_verify_do_not_share_results(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                solve = await request(
                    host, port, "POST", "/v1/solve", payload={"preset": "four"}
                )
                verify = await request(
                    host, port, "POST", "/v1/verify",
                    payload={"preset": "four"},
                )
                assert solve.json()["cache"] == "miss"
                # same fingerprint, but a different kind: its own miss
                assert verify.json()["cache"] == "miss"
                assert "certificate" in verify.json()["result"]

        asyncio.run(go())


class TestBackPressure:
    def test_queue_limit_answers_503_with_retry_after(self):
        release = threading.Event()

        def stuck_worker(spec):
            release.wait(timeout=10.0)
            return {"value": 1}

        async def go():
            async with running_service(
                fast_config(queue_limit=1, workers=1),
                workers_table={"solve": stuck_worker},
            ) as (_, host, port):
                first = asyncio.create_task(
                    request(
                        host, port, "POST", "/v1/solve",
                        payload={"preset": "four"},
                    )
                )
                await asyncio.sleep(0.05)  # the leader occupies the queue
                overflow = await request(
                    host, port, "POST", "/v1/solve",
                    payload={"preset": "six"},
                )
                assert overflow.status == 503
                # a real, parseable back-off hint: header and body agree
                assert float(overflow.headers["retry-after"]) > 0
                assert overflow.json()["retry_after"] == pytest.approx(
                    float(overflow.headers["retry-after"]), abs=1e-3
                )
                # identical work still coalesces instead of 503ing
                joined = asyncio.create_task(
                    request(
                        host, port, "POST", "/v1/solve",
                        payload={"preset": "four"},
                    )
                )
                await asyncio.sleep(0.05)
                release.set()
                assert (await first).json()["cache"] == "miss"
                assert (await joined).json()["cache"] == "coalesced"

        asyncio.run(go())

    def test_rate_limit_answers_429(self):
        async def go():
            config = fast_config(rate=0.001, burst=1)
            async with running_service(config) as (_, host, port):
                headers = {"X-Client-Id": "greedy"}
                first = await request(
                    host, port, "POST", "/v1/solve",
                    payload={"preset": "four"}, headers=headers,
                )
                second = await request(
                    host, port, "POST", "/v1/solve",
                    payload={"preset": "four"}, headers=headers,
                )
                assert first.status == 200
                assert second.status == 429
                assert float(second.headers["retry-after"]) > 0
                assert second.json()["retry_after"] == pytest.approx(
                    float(second.headers["retry-after"]), abs=1e-3
                )
                # an unrelated client is not punished
                other = await request(
                    host, port, "POST", "/v1/solve",
                    payload={"preset": "four"},
                    headers={"X-Client-Id": "patient"},
                )
                assert other.status == 200

        asyncio.run(go())


class TestSweepJobs:
    def test_sweep_runs_to_done_with_event_stream(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                accepted = await request(
                    host, port, "POST", "/v1/sweep",
                    payload={
                        "preset": "four",
                        "parameter": "mttc",
                        "values": [100.0, 500.0],
                    },
                )
                assert accepted.status == 202
                ticket = accepted.json()
                assert ticket["poll"] == f"/v1/jobs/{ticket['job']}"

                events = []
                async for line in stream_lines(
                    host, port, ticket["events"]
                ):
                    events.append(json.loads(line))
                kinds = [event["event"] for event in events]
                assert kinds[0] == "job.start"
                assert kinds[-1] == "job.done"
                assert kinds.count("sweep.point.done") == 2

                final = await request(host, port, "GET", ticket["poll"])
                body = final.json()
                assert body["status"] == "done"
                result = body["result"]
                assert result["parameter"] == "mttc"
                assert len(result["reliabilities"]) == 2
                assert result["argmax"]["value"] in result["values"]

        asyncio.run(go())

    def test_sweep_snapshot_stream_with_follow_0(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                accepted = await request(
                    host, port, "POST", "/v1/sweep",
                    payload={
                        "preset": "four",
                        "parameter": "mttc",
                        "values": [100.0],
                    },
                )
                ticket = accepted.json()
                # poll until done, then snapshot the event log
                for _ in range(200):
                    status = await request(host, port, "GET", ticket["poll"])
                    if status.json()["status"] == "done":
                        break
                    await asyncio.sleep(0.02)
                snapshot = await request(
                    host, port, "GET", ticket["events"] + "?follow=0"
                )
                assert snapshot.status == 200
                lines = snapshot.body.decode().splitlines()
                assert json.loads(lines[-1])["event"] == "job.done"

        asyncio.run(go())

    def test_sweep_validation_errors(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                cases = [
                    ({"preset": "four"}, "parameter"),
                    (
                        {"preset": "four", "parameter": "bogus",
                         "values": [1.0]},
                        "parameter",
                    ),
                    (
                        {"preset": "four", "parameter": "mttc", "values": []},
                        "values",
                    ),
                    (
                        {"preset": "four", "parameter": "mttc",
                         "values": ["x"]},
                        "values",
                    ),
                    (
                        {"preset": "nope", "parameter": "mttc",
                         "values": [1.0]},
                        "preset",
                    ),
                ]
                for payload, needle in cases:
                    response = await request(
                        host, port, "POST", "/v1/sweep", payload=payload
                    )
                    assert response.status == 400, payload
                    assert needle in response.json()["error"]

        asyncio.run(go())

    def test_max_jobs_answers_503(self):
        release = threading.Event()

        def stuck_worker(spec):
            release.wait(timeout=10.0)
            return {"expected_reliability": 0.5, "fingerprint": "f" * 64}

        async def go():
            async with running_service(
                fast_config(max_jobs=1),
                workers_table={"solve": stuck_worker},
            ) as (_, host, port):
                payload = {
                    "preset": "four",
                    "parameter": "mttc",
                    "values": [100.0],
                }
                first = await request(
                    host, port, "POST", "/v1/sweep", payload=payload
                )
                assert first.status == 202
                second = await request(
                    host, port, "POST", "/v1/sweep", payload=payload
                )
                assert second.status == 503
                assert float(second.headers["retry-after"]) >= 1.0
                assert second.json()["retry_after"] == pytest.approx(
                    float(second.headers["retry-after"]), abs=1e-3
                )
                release.set()

        asyncio.run(go())


class TestConfig:
    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            ServeConfig(executor="fibers")

    def test_rejects_bad_queue_limit(self):
        with pytest.raises(ValueError, match="queue_limit"):
            ServeConfig(queue_limit=0)

    def test_events_file_records_serve_stream(self, tmp_path):
        events_path = tmp_path / "serve-events.jsonl"

        async def go():
            config = fast_config(events=str(events_path))
            async with running_service(config) as (service, host, port):
                await request(
                    host, port, "POST", "/v1/solve", payload={"preset": "four"}
                )
                accepted = await request(
                    host, port, "POST", "/v1/sweep",
                    payload={
                        "preset": "four",
                        "parameter": "mttc",
                        "values": [100.0],
                    },
                )
                job = service.jobs.get(accepted.json()["job"])
                for _ in range(500):
                    if job.finished:
                        break
                    await asyncio.sleep(0.01)

        asyncio.run(go())
        kinds = [
            json.loads(line)["event"]
            for line in events_path.read_text().splitlines()
        ]
        assert "serve.start" in kinds
        assert "serve.solve.done" in kinds
        assert "serve.miss" in kinds
        # job lifecycle events reach the file too (what `repro top
        # --events` renders its jobs row from)
        assert "job.start" in kinds
        assert "sweep.point.done" in kinds
        assert "job.done" in kinds


class TestEventRingEndpoint:
    def test_events_snapshot_returns_ring_contents(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                await request(
                    host, port, "POST", "/v1/solve", payload={"preset": "four"}
                )
                snapshot = await request(
                    host, port, "GET", "/events?follow=0"
                )
                assert snapshot.status == 200
                assert snapshot.headers["content-type"].startswith(
                    "application/jsonl"
                )
                events = [
                    json.loads(line)
                    for line in snapshot.body.decode().splitlines()
                ]
                kinds = [event["event"] for event in events]
                assert "serve.start" in kinds
                assert "serve.miss" in kinds
                assert all("ts" in event for event in events)

        asyncio.run(go())

    def test_events_tail_follows_live_and_ends_at_shutdown(self):
        lines: list[str] = []

        async def go():
            async with running_service(fast_config()) as (_, host, port):

                async def tail():
                    async for line in stream_lines(host, port, "/events"):
                        lines.append(line)

                task = asyncio.create_task(tail())
                await asyncio.sleep(0.05)  # the tail is connected
                await request(
                    host, port, "POST", "/v1/solve", payload={"preset": "four"}
                )
                await asyncio.sleep(0.05)  # the events reached the tail
            # leaving the context stops the service, which closes the
            # ring, which must end the tail instead of hanging it
            await asyncio.wait_for(task, timeout=5.0)

        asyncio.run(go())
        kinds = [json.loads(line)["event"] for line in lines]
        assert "serve.miss" in kinds
        assert "serve.solve.done" in kinds

    def test_events_endpoint_is_get_only(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                response = await request(
                    host, port, "POST", "/events", payload={}
                )
                assert response.status == 405

        asyncio.run(go())


class TestEndpointHistograms:
    def test_metrics_split_latency_by_endpoint_and_phase(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                await request(
                    host, port, "POST", "/v1/solve", payload={"preset": "four"}
                )
                await request(host, port, "GET", "/healthz")
                response = await request(host, port, "GET", "/metrics")
                text = response.body.decode()
                families = assert_valid_openmetrics(text)
                # per-endpoint SLO histograms next to the global one
                assert families["repro_serve_endpoint_solve_seconds"] == (
                    "summary"
                )
                assert families["repro_serve_endpoint_healthz_seconds"] == (
                    "summary"
                )
                # queue wait vs compute, separately accounted
                assert families["repro_serve_solve_queue_seconds"] == "summary"
                assert (
                    families["repro_serve_solve_compute_seconds"] == "summary"
                )
                # p95 joined the exported quantile bounds
                assert 'repro_serve_request_seconds{quantile="0.95"}' in text

        asyncio.run(go())


class TestEventStreamIsolation:
    def test_concurrent_job_tails_never_interleave(self):
        """Events from concurrent sweep jobs A and B must never leak
        into each other's ``/v1/jobs/{id}/events`` tails."""
        a_may_finish = threading.Event()

        def worker(spec):
            if spec["mttc"] < 150.0:  # job A's point: outlive all of B
                a_may_finish.wait(timeout=10.0)
            return {"expected_reliability": 0.5, "fingerprint": "f" * 64}

        async def tail(host, port, path):
            events = []
            async for line in stream_lines(host, port, path):
                events.append(json.loads(line))
            return events

        async def go():
            async with running_service(
                fast_config(), workers_table={"solve": worker}
            ) as (_, host, port):
                first = await request(
                    host, port, "POST", "/v1/sweep",
                    payload={
                        "preset": "four",
                        "parameter": "mttc",
                        "values": [100.0],
                    },
                )
                second = await request(
                    host, port, "POST", "/v1/sweep",
                    payload={
                        "preset": "four",
                        "parameter": "mttc",
                        "values": [200.0, 300.0],
                    },
                )
                job_a = first.json()
                job_b = second.json()
                tails = [
                    asyncio.create_task(tail(host, port, job_a["events"])),
                    asyncio.create_task(tail(host, port, job_b["events"])),
                ]
                # B runs to completion while A is still in flight...
                events_b = await asyncio.wait_for(tails[1], timeout=10.0)
                a_may_finish.set()
                events_a = await asyncio.wait_for(tails[0], timeout=10.0)

                for job, events, points in (
                    (job_a["job"], events_a, 1),
                    (job_b["job"], events_b, 2),
                ):
                    assert events, f"empty tail for {job}"
                    # purity: every event in the tail belongs to the job
                    assert {event["job"] for event in events} == {job}
                    kinds = [event["event"] for event in events]
                    assert kinds[0] == "job.start"
                    assert kinds[-1] == "job.done"
                    assert kinds.count("sweep.point.done") == points
                    # lifecycle order survived the interleaving
                    assert kinds.index("job.start") < kinds.index(
                        "sweep.point.done"
                    )

        asyncio.run(go())

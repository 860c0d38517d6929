"""The load harness against an in-process service."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import ServeConfig
from repro.serve.loadgen import coalesce_proof, run_load
from tests.serve.conftest import running_service


def fast_config(**overrides) -> ServeConfig:
    defaults = dict(executor="thread", workers=4)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestRunLoad:
    def test_closed_loop_smoke(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                result = await run_load(
                    host, port, requests=60, concurrency=8
                )
                assert result.requests == 60
                assert result.errors == 0
                assert result.digest_failures == 0
                assert result.throughput > 0
                # warmed up: the measured window is all cache hits
                assert result.by_cache == {"hit": 60}
                assert result.latency.summary()["count"] == 60

        asyncio.run(go())

    def test_open_loop_paces_arrivals(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                result = await run_load(
                    host,
                    port,
                    requests=20,
                    concurrency=4,
                    mode="open",
                    rate=200.0,
                )
                assert result.errors == 0
                # 20 arrivals at 200/s occupy at least ~95 ms
                assert result.seconds >= 0.09

        asyncio.run(go())

    def test_as_dict_reports_quantiles(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                result = await run_load(host, port, requests=10, concurrency=2)
                summary = result.as_dict()
                latency = summary["latency"]
                assert latency["p50"] <= latency["p90"] <= latency["p99"]
                assert summary["throughput"] == pytest.approx(
                    result.throughput
                )

        asyncio.run(go())

    def test_mode_validation(self):
        async def go():
            with pytest.raises(ValueError, match="mode"):
                await run_load(
                    "127.0.0.1", 1, requests=1, mode="sideways"
                )
            with pytest.raises(ValueError, match="rate"):
                await run_load("127.0.0.1", 1, requests=1, mode="open")

        asyncio.run(go())


class TestCoalesceProof:
    def test_proof_holds_on_cold_fingerprint(self):
        async def go():
            async with running_service(fast_config()) as (service, host, port):
                tally = await coalesce_proof(host, port, k=25)
                assert tally["ok"], tally
                assert tally["by_cache"]["miss"] == 1
                joined = tally["by_cache"].get("coalesced", 0) + tally[
                    "by_cache"
                ].get("hit", 0)
                assert joined == 24
                executed = service.registry.counters[
                    "serve.solve.executed"
                ].value
                assert executed == 1

        asyncio.run(go())

    def test_proof_spec_is_cold_after_default_load(self):
        """The default proof spec must not collide with DEFAULT_SPEC."""

        async def go():
            async with running_service(fast_config()) as (service, host, port):
                await run_load(host, port, requests=10, concurrency=2)
                before = service.registry.counters[
                    "serve.solve.executed"
                ].value
                tally = await coalesce_proof(host, port, k=10)
                after = service.registry.counters[
                    "serve.solve.executed"
                ].value
                assert tally["ok"], tally
                assert after - before == 1

        asyncio.run(go())

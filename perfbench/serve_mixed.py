"""The ``serve-mixed`` workload: a ``repro serve`` process under a closed loop.

The service runs as the CLI subprocess with the process executor; the
pool workers inherit the pinned BLAS environment.  One client process
drives it over two keep-alive connections.  The client and the server
share the first usable CPU and the pool gets the others, one worker
per CPU: four busy processes on two CPUs made hit tails follow the
scheduler (hit p99 spread 0.53 over ten runs), so the request path and
the solver no longer compete for a CPU.

Most requests repeat a small hot set (result-cache reads: http,
identity, result cache and watcher, no solver work); a seeded minority
are fresh ``/v1/solve`` specs that run on the pool.

Closed, not open: callers of the service wait for their reply, and with
two connections an open loop would measure the generator's
head-of-line wait rather than the server.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any

from perfbench import checks, inputs
from perfbench.harness import (
    OUTPUT_DIR,
    THREAD_VARIABLES,
    now,
    percentile,
    process_peak_rss_mb,
)

#: Seconds allowed for the server to print its listening line.
START_TIMEOUT_S = 120.0
#: Seconds allowed for a graceful stop before the group is killed.
STOP_TIMEOUT_S = 20.0
#: Client connections in the closed loop.
CONNECTIONS = 2
#: Fresh specs per run whose served E[R] is checked against the library.
CHECKED_FRESH = 12
#: Fresh specs solved while warming up, so the pool has run the solver
#: before the window opens.
WARM_UP_SPECS = 2 * CONNECTIONS


def cpu_placement() -> "tuple[set[int], set[int]]":
    """``(client and server CPUs, pool CPUs)`` from the usable CPUs.

    With a single CPU everything shares it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    front, pool = set(cpus[:1]), set(cpus[1:])
    return front, pool or front


class Server:
    """A ``repro serve`` subprocess in this process's group.

    Every benchmark process leads its own process group (the
    orchestrator starts it so, and :meth:`start` makes sure), so the
    server and its pool workers are exactly the other members of that
    group, and killing the group on a timeout takes them along.  The
    server inherits this process's pinned environment.
    """

    log_path = os.path.join(OUTPUT_DIR, "serve-mixed-server.log")

    def __init__(self) -> None:
        self.process: "subprocess.Popen[str] | None" = None
        self.spawned_at = 0.0
        self.port = 0
        self.front_cpus, self.pool_cpus = cpu_placement()

    def start(self) -> None:
        if os.getpgid(0) != os.getpid():
            os.setpgid(0, 0)  # so the group holds nothing but us and the server
        self.spawned_at = now()
        os.sched_setaffinity(0, self.front_cpus)  # the server inherits it
        with open(self.log_path, "a", encoding="utf-8") as log_file:
            self.process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    "0",
                    "--workers",
                    str(len(self.pool_cpus)),
                    "--executor",
                    "process",
                ],
                stdout=subprocess.PIPE,
                stderr=log_file,
                text=True,
            )
        line = self._read_listening_line()
        self.port = int(line.rsplit(":", 1)[1])

    def _read_listening_line(self) -> str:
        assert self.process is not None and self.process.stdout is not None
        deadline = now() + START_TIMEOUT_S
        while now() < deadline:
            line = self.process.stdout.readline()
            if "listening on" in line:
                return line.strip()
            if not line and self.process.poll() is not None:
                break
        raise RuntimeError(f"repro serve did not start; see {self.log_path}")

    def group_pids(self) -> "list[int]":
        """The server and every process it started: the rest of our group."""
        group, me = os.getpgid(0), os.getpid()
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit() or int(entry) == me:
                continue
            try:
                if os.getpgid(int(entry)) == group:
                    pids.append(int(entry))
            except ProcessLookupError:
                continue
        return sorted(pids)

    def pin_pool(self) -> None:
        """Move the pool workers (forked on the first solve) to the pool CPUs."""
        assert self.process is not None
        workers = [pid for pid in self.group_pids() if pid != self.process.pid]
        if len(workers) != len(self.pool_cpus):
            raise RuntimeError(
                f"expected {len(self.pool_cpus)} pool workers, found {len(workers)}"
            )
        for pid in workers:
            os.sched_setaffinity(pid, self.pool_cpus)

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the server and its pool workers."""
        return sum(process_peak_rss_mb(pid) for pid in self.group_pids())

    def thread_records(self) -> "list[dict[str, Any]]":
        """The BLAS/OpenMP environment every server process runs with."""
        records = []
        for pid in self.group_pids():
            with open(f"/proc/{pid}/environ", "rb") as handle:
                pairs = handle.read().split(b"\0")
            environ = dict(
                pair.decode(errors="replace").split("=", 1)
                for pair in pairs
                if b"=" in pair
            )
            records.append(
                {
                    "pid": pid,
                    "env": {name: environ.get(name) for name in THREAD_VARIABLES},
                    "blas_threads": {},
                    "cpus": sorted(os.sched_getaffinity(pid)),
                }
            )
        return records

    def stop(self) -> None:
        """Interrupt the server, then kill what is left and wait for it."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        for pid in self.group_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        os.sched_setaffinity(0, self.front_cpus | self.pool_cpus)
        deadline = now() + STOP_TIMEOUT_S
        while self.group_pids() and now() < deadline:
            time.sleep(0.05)
        if self.group_pids():
            raise RuntimeError("serve pool workers outlived the server")
        self.process = None


class Connection:
    """One keep-alive HTTP/1.1 connection (Content-Length framing only)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: "asyncio.StreamReader | None" = None
        self.writer: "asyncio.StreamWriter | None" = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> "tuple[int, bytes]":
        assert self.reader is not None and self.writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if body:
            head += "Content-Type: application/json\r\n"
        self.writer.write(head.encode() + b"\r\n" + body)
        await self.writer.drain()
        response_head = await self.reader.readuntil(b"\r\n\r\n")
        lines = response_head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)


def parse_openmetrics(text: str) -> "dict[str, float]":
    """``{"name{labels}": value}`` for every sample line."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def _body(spec: "dict[str, Any]") -> bytes:
    return json.dumps(spec, sort_keys=True).encode()


def _library_parameters(spec: "dict[str, Any]") -> Any:
    """The configuration a spec names, built without the service's parser."""
    from repro.perception.parameters import PerceptionParameters

    build = (
        PerceptionParameters.four_version_defaults
        if spec["preset"] == "four"
        else PerceptionParameters.six_version_defaults
    )
    return build(
        mttc=spec["mttc"], mttf=spec["mttf"], rejuvenation_interval=spec["interval"]
    )


class ServeMixed:
    def __init__(self, seed: int, part: int) -> None:
        self.seed = seed
        self.part = part
        self.server = Server()
        self.hot = inputs.serve_hot_set(seed)
        self.hot_bodies = [_body(spec) for spec in self.hot]
        self.connections: list[Connection] = []

    async def setup(self) -> float:
        """Boot, fill the hot set, warm every pool worker; returns setup_s."""
        self.server.start()
        self.connections = [Connection(self.server.port) for _ in range(CONNECTIONS)]
        for connection in self.connections:
            await connection.open()
        for body in self.hot_bodies:
            status, payload = await self.connections[0].request(
                "POST", "/v1/solve", body
            )
            if status != 200:
                raise RuntimeError(f"hot-set fill answered {status}: {payload[:200]!r}")
        self.server.pin_pool()
        warm = [
            spec
            for kind, spec in inputs.serve_requests(
                self.seed, 1000, stream=f"serve-warmup/{self.part}"
            )
            if kind == "fresh"
        ][:WARM_UP_SPECS]
        for start in range(0, len(warm), CONNECTIONS):
            answers = await asyncio.gather(
                *(
                    connection.request("POST", "/v1/solve", _body(spec))
                    for connection, spec in zip(self.connections, warm[start:])
                )
            )
            for status, payload in answers:
                if status != 200:
                    raise RuntimeError(f"warm-up answered {status}: {payload[:200]!r}")
        return now() - self.server.spawned_at

    async def metrics(self) -> "dict[str, float]":
        status, payload = await self.connections[0].request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_openmetrics(payload.decode())

    async def window(
        self, requests: "list[tuple[str, Any]]", seconds: float
    ) -> "dict[str, Any]":
        """Closed loop over ``requests`` for ``seconds``."""
        pending = iter(range(len(requests)))
        samples: list[tuple[float, int, bytes, int]] = []
        started = now()
        deadline = started + seconds

        async def drive(connection: Connection) -> None:
            for index in pending:
                if now() >= deadline:
                    return
                kind, spec = requests[index]
                body = self.hot_bodies[spec] if kind == "hot" else _body(spec)
                sent = now()
                status, payload = await connection.request("POST", "/v1/solve", body)
                samples.append((now() - sent, status, payload, index))

        await asyncio.gather(*(drive(connection) for connection in self.connections))
        return {"samples": samples, "elapsed_s": now() - started}

    def evaluate(
        self, requests: "list[tuple[str, Any]]", samples: "list[tuple]"
    ) -> "dict[str, Any]":
        """Check every response and split latencies by cache outcome."""
        hits: list[float] = []
        misses: list[float] = []
        problems: list[str] = []
        served: dict[int, tuple[str, float]] = {}
        for latency, status, payload, index in samples:
            kind, _ = requests[index]
            try:
                answer = json.loads(payload)
            except ValueError:
                answer = None
            problem = checks.check_serve_response(status, answer)
            if problem is None and kind == "fresh" and answer["cache"] == "hit":
                problem = "a fresh spec was answered from the result cache"
            if problem is not None:
                problems.append(f"request {index}: {problem}")
                continue
            (hits if answer["cache"] == "hit" else misses).append(latency * 1e3)
            served[index] = (kind, answer["result"]["expected_reliability"])
        return {"hits": hits, "misses": misses, "problems": problems, "served": served}

    def check_library(
        self,
        requests: "list[tuple[str, Any]]",
        served: "dict[int, tuple[str, float]]",
    ) -> "list[str | None]":
        """Every hot-set answer and sampled fresh E[R] equal the library's value.

        One entry per check: None when it passed, else the reason.  The
        hot answers are checked one by one, so a cache that serves the
        wrong entry fails even after a correct first answer.
        """
        from repro.engine.tasks import expected_reliability

        hot_references = [
            expected_reliability(_library_parameters(spec)) for spec in self.hot
        ]
        results: list[str | None] = []
        fresh: list[int] = []
        for index, (kind, value) in sorted(served.items()):
            if kind == "hot":
                hot_index = requests[index][1]
                results.append(
                    checks.check_same_value(
                        f"request {index} (hot spec {hot_index})",
                        value,
                        hot_references[hot_index],
                    )
                )
            else:
                fresh.append(index)
        for position in inputs.subsample(
            self.seed, len(fresh), CHECKED_FRESH, stream=f"serve-check/{self.part}"
        ):
            index = fresh[position]
            reference = expected_reliability(_library_parameters(requests[index][1]))
            results.append(
                checks.check_same_value(
                    f"fresh request {index}", served[index][1], reference
                )
            )
        return results

    async def close(self) -> None:
        for connection in self.connections:
            await connection.close()


def measure(args: Any) -> "dict[str, Any]":
    """One serve-mixed measurement process, for :func:`perfbench.child.build_record`."""
    from perfbench.harness import thread_provenance

    workload = ServeMixed(args.seed, args.part)
    # sized for the window at several thousand requests per second
    requests = inputs.serve_requests(
        args.seed, int(args.seconds * 8000) + 10_000, stream=f"serve/{args.part}"
    )
    try:
        setup_s, window, per_layer = asyncio.run(
            _drive(workload, requests, args.seconds)
        )
        threads = [
            {**thread_provenance(), "cpus": sorted(os.sched_getaffinity(0))},
            *workload.server.thread_records(),
        ]
        peak = workload.server.peak_rss_mb()
    finally:
        workload.server.stop()
    started = now()
    import repro  # noqa: F401  (timed: the library import a CLI start pays)

    import_s = now() - started
    evaluation = workload.evaluate(requests, window["samples"])
    answered = len(evaluation["hits"]) + len(evaluation["misses"])
    # The benchmark wraps nothing here (the solver runs in pool workers),
    # so tracing costs this workload nothing by construction.
    per_layer["trace.overhead_frac"] = 0.0
    if args.trace:
        # Client-side latencies split by the response's ``cache`` field.
        # The hit tail is p90: hit p99 follows the host's CPU steal (ten
        # runs spread 0.30, p90 0.11).
        split = {"hit": evaluation["hits"], "miss": evaluation["misses"]}
        for kind, latencies in split.items():
            for q in (50, 90):
                per_layer[f"serve.{kind}_p{q}_ms"] = percentile(latencies, q)
    return {
        "setup_s": setup_s,
        "import_s": import_s,
        "threads": threads,
        "peak_rss_mb": peak,
        "window": {
            "units": len(window["samples"]),
            "failed": len(evaluation["problems"]),
            "elapsed_s": window["elapsed_s"],
            "per_layer": per_layer,
        },
        # the hit share: requests whose answer was already computed
        "shared_work_share": len(evaluation["hits"]) / max(1, answered),
        "post_run": workload.check_library(requests, evaluation["served"]),
        "problems": evaluation["problems"],
    }


async def _drive(
    workload: ServeMixed, requests: "list[tuple[str, Any]]", seconds: float
) -> "tuple[float, dict[str, Any], dict[str, float]]":
    """Set up, run the window; returns (setup_s, window, serve layers)."""
    try:
        setup_s = await workload.setup()
        before = await workload.metrics()
        window = await workload.window(requests, seconds)
        after = await workload.metrics()
    finally:
        await workload.close()
    return setup_s, window, _serve_layers(before, after)


def _p50(histogram: str) -> str:
    return f'repro_serve_{histogram}_seconds{{quantile="0.5"}}'


def _serve_layers(
    before: "dict[str, float]", after: "dict[str, float]"
) -> "dict[str, float]":
    """Serve-layer numbers from the service's own ``GET /metrics``.

    Pool workers cannot be wrapped from here, so the solver layers read
    0 on this workload; the latency quantiles are the service's
    lifetime summaries, the ratios are window deltas.
    """
    from perfbench.layers import PER_LAYER

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    requests = delta("repro_serve_solve_requests_total")
    misses = delta("repro_serve_miss_total") + delta("repro_serve_coalesced_total")
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers.update(
        {
            "serve.request_p50_ms": 1e3 * after[_p50("request")],
            "serve.queue_p50_ms": 1e3 * after[_p50("solve_queue")],
            "serve.compute_p50_ms": 1e3 * after[_p50("solve_compute")],
            "serve.cache_hit_ratio": (
                delta("repro_serve_cache_hits_total") / requests if requests else 0.0
            ),
            "serve.executed_per_miss": (
                delta("repro_serve_solve_executed_total") / misses if misses else 0.0
            ),
        }
    )
    return layers

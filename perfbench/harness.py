"""Statistics, provenance and span recording shared by every workload.

Nothing here imports numpy or the program at module level: the
orchestrator (``run.py``) imports this module before any child process
has pinned its BLAS thread count.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import re
import subprocess
import sys
import time
from collections import Counter
from collections.abc import Callable
from typing import Any

#: The alphabet BENCHMARK.json allows in metric and workload names.
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")

#: Environment variables that fix BLAS/OpenMP threading.  Every process
#: the benchmark starts runs with each of them set to "1".
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)

#: A percentile is reported only when at least this many samples lie
#: beyond it, so one outlier cannot be the reported tail.
MIN_SAMPLES_BEYOND = 10

#: Runtime thread queries exported by the OpenBLAS builds numpy and
#: scipy ship (symbol names differ by build prefix and integer width).
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

#: Where runs leave their records and the server log (git-ignored).
OUTPUT_DIR = os.path.join(".bench_build", "perfbench")

now = time.monotonic


def percentile(samples: "list[float]", q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie above the percentile: such a tail is one or two
    outliers, not a measurement.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if not ordered or beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"at least {MIN_SAMPLES_BEYOND} are needed"
        )
    return ordered[rank - 1]


def pinned_environment(base: "dict[str, str]", src: str) -> "dict[str, str]":
    """``base`` with BLAS/OpenMP pinned to one thread and ``src`` importable."""
    env = dict(base)
    for variable in THREAD_VARIABLES:
        env[variable] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, base.get("PYTHONPATH", "")) if part
    )
    # fixed str hashing: set and dict orders, and the work that follows
    # from them, repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _loaded_openblas() -> "list[str]":
    paths = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                fields = line.split()
                path = fields[-1] if len(fields) >= 6 else ""
                name = os.path.basename(path).lower()
                if "openblas" in name and ".so" in name and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def blas_runtime_threads() -> "dict[str, int | None]":
    """Thread count each loaded OpenBLAS reports (None: no query symbol)."""
    threads: dict[str, int | None] = {}
    for path in _loaded_openblas():
        count = None
        library = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                count = int(function())
                break
        threads[os.path.basename(path)] = count
    return threads


def thread_provenance() -> "dict[str, Any]":
    """This process's thread environment and BLAS runtime thread counts."""
    return {
        "pid": os.getpid(),
        "env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "blas_threads": blas_runtime_threads(),
    }


def threads_pinned(record: "dict[str, Any]") -> bool:
    """True when a :func:`thread_provenance` record shows one thread."""
    env_ok = all(value == "1" for value in record["env"].values())
    runtime_ok = all(
        count in (None, 1) for count in record["blas_threads"].values()
    )
    return env_ok and runtime_ok


def _git_sha(root: str) -> "str | None":
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def host_provenance(root: str) -> "dict[str, Any]":
    """BLAS vendor/version, interpreter and library versions, CPUs, sha."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
    }


def cpu_ticks() -> "tuple[int, int]":
    """``(busy, stolen)`` clock ticks summed over every CPU since boot.

    Stolen ticks are time a virtual CPU wanted to run while the host ran
    something else; they slow every process without showing in its own
    CPU time, so the benchmark records their share of each window.
    """
    with open("/proc/stat", encoding="utf-8") as stat:
        fields = [int(value) for value in stat.readline().split()[1:]]
    user, nice, system, _, _, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def steal_share(before: "tuple[int, int]", after: "tuple[int, int]") -> float:
    """Stolen share of the ticks the CPUs wanted between two :func:`cpu_ticks`."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return stolen / (busy + stolen) if busy + stolen else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM), in MB."""
    return process_peak_rss_mb(os.getpid())


def process_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# span recording around layer entry points
# ----------------------------------------------------------------------
class Recorder:
    """In-memory spans recorded around wrapped layer entry points.

    A span is ``[name, start, end, parent]`` where ``parent`` is the
    index of the enclosing span (or -1).  The workloads are single
    threaded, so children of one span never overlap and a span's self
    time is its duration minus the sum of its children's durations.
    Wrappers record whenever they are installed; :meth:`restore`
    removes them.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        observe: "Callable[[Counter, Any], None] | None" = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [name, now(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = now()
            counts[name + ".calls"] += 1
            if observe is not None:
                observe(counts, result)
            return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def self_times(self) -> "dict[str, float]":
        """Total self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - children
        return totals


# ----------------------------------------------------------------------
# the timed window
# ----------------------------------------------------------------------
def timed_window(
    operation: "Callable[[int], tuple[int, int]]", seconds: float
) -> "dict[str, Any]":
    """Run ``operation(0)``, ``operation(1)``, ... until ``seconds`` pass.

    ``operation`` returns ``(units, failed)``: units of work done (the
    throughput unit) and how many of them failed.
    """
    units = failed = operations = 0
    started = now()
    while now() - started < seconds:
        done, wrong = operation(operations)
        units += done
        failed += wrong
        operations += 1
    return {
        "units": units,
        "failed": failed,
        "operations": operations,
        "elapsed_s": now() - started,
    }


def log(message: str) -> None:
    """Progress line on stderr (stdout's last line is the result)."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)

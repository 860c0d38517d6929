"""Seeded workload inputs, as plain data.

Every generator is a pure function of ``(seed, count)`` and prefix
stable: the first k items do not depend on ``count``, so a run that
gets through more operations sees a longer prefix of the same inputs.
Each workload draws from its own named stream (string seeds are hashed
by ``random.Random`` independently of ``PYTHONHASHSEED``), and warm-up
inputs come from a separate stream so warm-up never pre-fills a cache
the timed window reads.
"""

from __future__ import annotations

import random
from typing import Any

#: The figure grids of the experiment registry (``repro experiments``),
#: copied from ``repro.experiments.fig4.GRID_*``, ``phase.GRID_*`` and
#: ``scaling.run_scaling``'s default ``max_modules=9``.  Copies, not
#: imports, so the workload stays fixed when the program changes.
FIG4_MTTC = (
    300, 400, 525, 600, 800, 1000, 1523, 2000, 3000, 4000, 5000, 6000, 8000, 10000,
)
FIG4_ALPHA = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
FIG4_P = (0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20)
FIG4_P_PRIME = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
PHASE_MTTC = (300, 500, 800, 1523, 3000, 6000, 10000)
PHASE_P_PRIME = (0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8)
SCALING_MODULES = tuple(range(4, 10))

#: The paper's two configurations (Table II), as fig4 and phase use them.
FOUR_VERSION = {"n_modules": 4, "f": 1, "r": 1, "rejuvenation": False}
SIX_VERSION = {"n_modules": 6, "f": 1, "r": 1, "rejuvenation": True}
#: Table II mean time to compromise, the base of every mttc grid.
DEFAULT_MTTC = 1523.0

#: Share of serve requests that are fresh specs (result-cache misses).
#: Assumed: no caller in the repository fixes a serving mix.  It is small so
#: the run exercises the read path, and large enough that a 15 s run
#: has about 900 misses for a steady miss p90.
SERVE_MISS_SHARE = 0.08
#: Hot-set size.  Assumed; it only has to lie far below the service's
#: result_cache_size (4096) so every repeat is a hit.
SERVE_HOT_SET = 8
#: Share of fresh specs on the six-version shape (the rest four-version).
#: Assumed.  Unequal on purpose: with two latency modes of equal weight
#: the miss median would sit on the boundary between them.
SERVE_SIX_SHARE = 0.75

#: Times (s) of the nv15 transient-reward grid.
TRANSIENT_TIMES = (60.0, 300.0, 900.0)


def _stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def sweep_operating_points(
    seed: int, count: int, *, stream: str = "sweep"
) -> "list[dict[str, float]]":
    """Operating points the figures are regenerated at.

    Each scales every mttc grid and sets ``mttf`` and the rejuvenation
    interval within 20% of Table II.  The jitter is assumed; its only
    job is that no two operations share a net, so reuse within an
    operation comes from the grids alone.
    """
    rng = _stream(stream, seed)
    return [
        {
            "mttc_scale": rng.uniform(0.8, 1.2),
            "mttf": rng.uniform(2400.0, 3600.0),
            "rejuvenation_interval": rng.uniform(480.0, 720.0),
        }
        for _ in range(count)
    ]


def figure_points(point: "dict[str, float]") -> "list[tuple[dict[str, Any], bool]]":
    """Every configuration the registry's figure experiments evaluate.

    Returns ``(PerceptionParameters keyword arguments, generalized)``
    pairs in the order the experiments add them: Fig. 4(a)-(d) and the
    phase diagram on both paper configurations, then the scaling study,
    whose points use the generalized (N, threshold) reward.  Every grid
    runs at the operating ``point``.
    """
    scale = point["mttc_scale"]
    base = {
        "mttc": DEFAULT_MTTC * scale,
        "mttf": point["mttf"],
        "rejuvenation_interval": point["rejuvenation_interval"],
    }
    points: list[tuple[dict[str, Any], bool]] = []

    def both(**overrides: Any) -> None:
        for preset in (FOUR_VERSION, SIX_VERSION):
            points.append(({**preset, **base, **overrides}, False))

    for mttc in FIG4_MTTC:
        both(mttc=mttc * scale)
    for alpha in FIG4_ALPHA:
        both(alpha=alpha)
    for p in FIG4_P:
        both(p=p)
    for p_prime in FIG4_P_PRIME:
        both(p_prime=p_prime)
    for mttc in PHASE_MTTC:
        for p_prime in PHASE_P_PRIME:
            both(mttc=mttc * scale, p_prime=p_prime)
    for n in SCALING_MODULES:
        points.append(({"n_modules": n, "f": 1, "rejuvenation": False, **base}, True))
        if n >= 6:
            points.append(
                ({"n_modules": n, "f": 1, "r": 1, "rejuvenation": True, **base}, True)
            )
    points.append(
        ({"n_modules": 9, "f": 2, "r": 1, "rejuvenation": True, **base}, True)
    )
    return points


def _serve_rates(rng: random.Random) -> "dict[str, float]":
    return {
        "mttc": rng.uniform(1200.0, 1900.0),
        "mttf": rng.uniform(2400.0, 3600.0),
        "interval": rng.uniform(480.0, 720.0),
    }


def serve_hot_set(seed: int) -> "list[dict[str, Any]]":
    """The repeated specs, half on each paper shape.

    Solve specs carry no ``method`` key: the route is the engine's
    choice, and how that key is handled is expected to change.
    """
    rng = _stream("serve-hot", seed)
    return [
        {"preset": "four" if index % 2 == 0 else "six", **_serve_rates(rng)}
        for index in range(SERVE_HOT_SET)
    ]


def serve_requests(
    seed: int, count: int, *, stream: str = "serve"
) -> "list[tuple[str, Any]]":
    """``("hot", index)`` or ``("fresh", spec)`` per request, in order."""
    rng = _stream(stream, seed)
    requests: list[tuple[str, Any]] = []
    for _ in range(count):
        if rng.random() < SERVE_MISS_SHARE:
            preset = "six" if rng.random() < SERVE_SIX_SHARE else "four"
            requests.append(("fresh", {"preset": preset, **_serve_rates(rng)}))
        else:
            requests.append(("hot", rng.randrange(SERVE_HOT_SET)))
    return requests


def batch_seeds(seed: int, count: int, *, stream: str = "sim-batch") -> "list[int]":
    """Simulation seeds, one per batch operation."""
    rng = _stream(stream, seed)
    return [rng.randrange(2**31) for _ in range(count)]


def fleet_variants(seed: int, count: int, *, stream: str) -> "list[dict[str, float]]":
    """Rate variants of a fleet net (all three reach the generator)."""
    rng = _stream(stream, seed)
    return [
        {
            "mean_maintenance_time": rng.uniform(150.0, 210.0),
            "mean_dispatch_time": rng.uniform(24.0, 36.0),
            "mttc": rng.uniform(1300.0, 1750.0),
        }
        for _ in range(count)
    ]


def subsample(seed: int, population: int, size: int, *, stream: str) -> "list[int]":
    """Sorted seeded sample of indices in ``range(population)``."""
    rng = _stream(stream, seed)
    return sorted(rng.sample(range(population), min(size, population)))

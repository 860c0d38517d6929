"""Steady-state solution of a DSPN with automatic method dispatch."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.dspn.ctmc_builder import build_ctmc
from repro.dspn.mrgp_builder import build_mrgp_kernels
from repro.dspn.rewards import RewardFunction, reward_vector
from repro.dspn.sparse_builder import sparse_generator
from repro.errors import ParameterError, UnsupportedModelError, VerificationError
from repro.markov.mrgp import solve_mrgp
from repro.markov.sparse import SparseSolveInfo, stationary_distribution_sparse
from repro.obs import counter, span
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.statespace import TangibleGraph, tangible_reachability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.certify import Certificate

#: Analytic routes accepted by :func:`solve_steady_state`.
METHODS = ("auto", "ctmc", "mrgp", "sparse")

#: ``method="auto"`` switches exponential-only nets from the dense CTMC
#: solve (O(n³) — ~35s at 4000 states) to the sparse Krylov route at
#: this state count.  Well below the threshold the dense solve is
#: faster (no reordering/ILU setup); well above it is intractable.
SPARSE_STATE_THRESHOLD = 1500

#: Generators denser than this stay on the dense route regardless of
#: size: ILU fill-in on near-dense patterns costs more than the direct
#: factorization it is meant to avoid.
SPARSE_DENSITY_CEILING = 0.05


@dataclass
class SteadyStateResult:
    """Steady-state distribution over the tangible markings of a net.

    Attributes
    ----------
    markings:
        Tangible markings, aligned with ``pi``.
    pi:
        Long-run time-average probability of each marking.
    method:
        ``"ctmc"``, ``"mrgp"`` or ``"sparse"`` — which analytic route
        was taken.
    graph:
        The underlying tangible reachability graph (for diagnostics).
    certificate:
        Numerical certificate attached when the solve was requested with
        ``verify=...`` (``None`` otherwise).  Travels with the result
        through the engine cache.
    solver_info:
        Iterative-solver provenance (Krylov method, iterations, achieved
        residual) when the sparse route produced ``pi``; ``None`` for
        the direct dense routes.
    """

    markings: list[Marking]
    pi: np.ndarray
    method: str
    graph: TangibleGraph
    certificate: "Certificate | None" = None
    solver_info: SparseSolveInfo | None = None

    def expected_reward(self, reward: RewardFunction) -> float:
        """Eq. 1: the ``pi``-weighted sum of ``reward`` over markings."""
        return float(self.pi @ reward_vector(self.markings, reward))

    def probability(self, predicate: Callable[[Marking], bool]) -> float:
        """Total stationary probability of markings satisfying ``predicate``."""
        return float(
            sum(p for marking, p in zip(self.markings, self.pi) if predicate(marking))
        )

    def distribution(self) -> list[tuple[Marking, float]]:
        """(marking, probability) pairs sorted by decreasing probability."""
        pairs = list(zip(self.markings, (float(p) for p in self.pi)))
        pairs.sort(key=lambda pair: -pair[1])
        return pairs


def routing_policy() -> dict[str, Any]:
    """The auto-routing thresholds, for manifests and diagnostics."""
    return {
        "sparse_state_threshold": SPARSE_STATE_THRESHOLD,
        "sparse_density_ceiling": SPARSE_DENSITY_CEILING,
    }


def route_exponential(graph: TangibleGraph) -> dict[str, Any]:
    """The ``method="auto"`` routing decision for an exponential-only net.

    Routes to the sparse Krylov path when the state space is large
    *and* the generator is sparse; dense otherwise.  Returned as a
    plain dict — the same record lands as span attributes (the decision
    is a deterministic function of the graph, hence trace-stable) and
    in the :class:`~repro.obs.manifest.RunManifest` of runs that solved
    under ``auto``.
    """
    states = graph.n_states
    density = graph.generator_density()
    sparse = states >= SPARSE_STATE_THRESHOLD and density <= SPARSE_DENSITY_CEILING
    return {
        "route": "sparse" if sparse else "ctmc",
        "states": states,
        "density": round(density, 9),
        "state_threshold": SPARSE_STATE_THRESHOLD,
        "density_ceiling": SPARSE_DENSITY_CEILING,
    }


#: Routing decisions taken under ``method="auto"`` in this process, by
#: net name — surfaced in :func:`repro.obs.manifest.collect_manifest` so
#: a benchmark artifact records which route produced its numbers.
_ROUTING_DECISIONS: dict[str, str] = {}


def routing_decisions() -> dict[str, str]:
    """Net name → resolved route for every auto-solve so far (a copy)."""
    return dict(sorted(_ROUTING_DECISIONS.items()))


def _verification_tolerance(verify: "bool | float | None") -> float | None:
    """Normalize the ``verify`` argument to a tolerance (or ``None``)."""
    if verify is None or verify is False:
        return None
    if verify is True:
        from repro.verify.certify import DEFAULT_TOLERANCE

        return DEFAULT_TOLERANCE
    if isinstance(verify, (int, float)):
        if verify <= 0:
            raise ParameterError(f"verify tolerance must be > 0, got {verify}")
        return float(verify)
    raise ParameterError(
        f"verify must be None, a bool, or a positive tolerance, got {verify!r}"
    )


def solve_steady_state(
    net: PetriNet,
    *,
    max_states: int = 200_000,
    method: str = "auto",
    use_cache: bool | None = None,
    verify: "bool | float | None" = None,
) -> SteadyStateResult:
    """Solve ``net`` for its stationary marking distribution.

    ``method="auto"`` dispatches on the model class and size: nets
    enabling deterministic transitions are solved as MRGPs; exponential-
    only nets are solved as CTMCs — densely below
    :data:`SPARSE_STATE_THRESHOLD` states, via the sparse Krylov route
    (:mod:`repro.markov.sparse`) above it (see :func:`route_exponential`;
    the decision is recorded on the ``dspn.route`` span and in run
    manifests).  ``"ctmc"`` insists on the dense CTMC route (raising on
    deterministic nets); ``"sparse"`` insists on the sparse route at any
    size (also CTMC-class only); ``"mrgp"`` forces the MRGP route even
    for exponential-only nets, where its renewal equations reduce to the
    embedded-chain solution — the routes must then agree, which the
    differential harnesses in ``tests/engine/`` and ``tests/markov/``
    exploit.

    Solutions are memoized in the engine's solver cache (keyed by the
    canonical net fingerprint plus ``max_states`` and the *requested*
    ``method``) unless caching is disabled globally or via
    ``use_cache=False``.  An ``auto`` entry may therefore carry either
    resolved route; route equivalence is guaranteed by certification,
    not by key separation (see docs/SOLVERS.md).  Cached results are
    shared objects: treat them as immutable.

    ``use_cache=False`` skips that result tier only.  The tangible
    graph still comes from the cache's structure tier (re-rated instead
    of re-explored when the net's structure was seen before); only the
    global switch (``--no-cache``, ``configure_cache(enabled=False)``)
    turns that off.

    ``verify`` requests a post-hoc numerical certificate of the returned
    distribution (see :mod:`repro.verify.certify`): ``True`` certifies
    at the default ``1e-9`` residual tolerance, a positive float sets a
    custom tolerance, and ``None``/``False`` (the default) skips
    certification.  Certified results carry their
    :class:`~repro.verify.certify.Certificate` into the cache; on a
    cache hit under ``verify``, an entry whose certificate is missing or
    stale is re-certified in place, and one whose certificate fails (or
    that fails re-certification) is **refused** and recomputed from
    scratch.

    Raises
    ------
    ParameterError
        If ``method`` is not one of :data:`METHODS` (rejected eagerly,
        before any state-space work).
    StateSpaceError
        If the reachable marking space exceeds ``max_states``.
    UnsupportedModelError
        If some tangible marking enables more than one deterministic
        transition (fall back to :func:`repro.dspn.simulate.simulate`),
        or if ``method="ctmc"`` or ``method="sparse"`` is requested for
        a deterministic net.
    SolverError
        If the resulting process has no unique stationary distribution.
    VerificationError
        If ``verify`` is requested and the freshly computed solution
        fails its certificate.
    """
    if method not in METHODS:
        raise ParameterError(
            f"unknown method {method!r}; valid methods: {', '.join(sorted(METHODS))}"
        )
    tolerance = _verification_tolerance(verify)

    # Lazy import: the engine package imports SteadyStateResult from here.
    from repro.engine.cache import active_cache
    from repro.engine.hashing import (
        digest_scope,
        net_fingerprint,
        solver_cache_key,
    )

    with digest_scope(), span("dspn.solve", net=net.name, requested=method) as sp:
        fingerprint = net_fingerprint(net) if tolerance is not None else None

        cache = active_cache() if use_cache in (None, True) else None
        key = None
        if cache is not None:
            key = solver_cache_key(net, max_states=max_states, method=method)
            cached = cache.get(key)
            if cached is not None:
                if tolerance is None:
                    sp.set(cache="hit", method=cached.method)
                    return cached
                served = _serve_verified(cache, key, cached, fingerprint, tolerance)
                if served is not None:
                    sp.set(cache="hit", method=served.method)
                    return served
                # stale-and-failing or failing certificate: refuse the entry
                counter("engine.cache.refused").inc()
                sp.set(cache="refused")

        result = _solve_uncached(net, max_states=max_states, method=method)
        result.pi.setflags(write=False)  # cached results are shared; freeze
        if tolerance is not None:
            result.certificate = _certify_or_raise(result, fingerprint, tolerance)
        if cache is not None and key is not None:
            cache.put(key, result)
        sp.set(method=result.method, states=len(result.pi))
        return result


def _serve_verified(
    cache,
    key: str,
    cached: SteadyStateResult,
    fingerprint: str | None,
    tolerance: float,
) -> SteadyStateResult | None:
    """Vet a cache hit under ``verify``; ``None`` means refuse the entry.

    A hit with a current, passing certificate at (or below) the
    requested tolerance is served as-is.  A hit whose certificate is
    missing, stale, or looser than requested is re-certified in place —
    cheap, no state-space rebuild — and re-stored on success.  Anything
    that fails certification is refused so the caller recomputes.
    """
    certificate = getattr(cached, "certificate", None)
    if (
        certificate is not None
        and certificate.passed
        and certificate.is_current(fingerprint)
        and certificate.tolerance <= tolerance
    ):
        return cached
    if certificate is not None and certificate.is_current(fingerprint):
        if certificate.tolerance <= tolerance:
            return None  # current, tight enough, and failing: refuse
    from repro.verify.certify import certify_steady_state

    fresh = certify_steady_state(cached, fingerprint=fingerprint, tolerance=tolerance)
    if not fresh.passed:
        return None
    cached.certificate = fresh
    cache.put(key, cached)
    return cached


def _certify_or_raise(
    result: SteadyStateResult, fingerprint: str | None, tolerance: float
) -> "Certificate":
    from repro.verify.certify import certify_steady_state

    certificate = certify_steady_state(
        result, fingerprint=fingerprint, tolerance=tolerance
    )
    if not certificate.passed:
        failures = "; ".join(check.render() for check in certificate.failures())
        raise VerificationError(
            f"steady-state solution failed certification: {failures}"
        )
    return certificate


def _solve_uncached(
    net: PetriNet, *, max_states: int, method: str
) -> SteadyStateResult:
    """The actual reachability + solve pipeline, without memoization."""
    graph = tangible_reachability(net, max_states=max_states)
    deterministic = graph.has_deterministic()
    if method in ("ctmc", "sparse") and deterministic:
        raise UnsupportedModelError(
            f"net {net.name!r} enables deterministic transitions; the "
            f"{'CTMC' if method == 'ctmc' else 'sparse'} route cannot solve "
            "it — use method='auto' or 'mrgp'"
        )
    if deterministic or method == "mrgp":
        kernel, sojourn = build_mrgp_kernels(graph)
        solution = solve_mrgp(kernel, sojourn)
        return SteadyStateResult(
            markings=graph.markings, pi=solution.pi, method="mrgp", graph=graph
        )

    route = method
    if method == "auto":
        decision = route_exponential(graph)
        route = decision["route"]
        _ROUTING_DECISIONS[net.name] = route
        with span("dspn.route", **decision):
            pass

    if route == "sparse":
        generator = sparse_generator(graph)
        pi, info = stationary_distribution_sparse(
            generator, what=f"net {net.name!r}"
        )
        return SteadyStateResult(
            markings=graph.markings,
            pi=pi,
            method="sparse",
            graph=graph,
            solver_info=info,
        )
    ctmc = build_ctmc(graph)
    return SteadyStateResult(
        markings=graph.markings,
        pi=ctmc.stationary_distribution(),
        method="ctmc",
        graph=graph,
    )

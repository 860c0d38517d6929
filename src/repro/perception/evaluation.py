"""The Eq. 1 evaluation pipeline: E[R_sys] = Σ π_{i,j,k} · R_{i,j,k}.

The pipeline solves the appropriate DSPN for its steady-state marking
distribution, aggregates markings into the paper's (i, j, k) module
states, and weighs each state's reliability function value by its
probability.

By default the reliability function is chosen to match the paper:
verbatim Appendix A for the (N=4, f=1, no-rejuvenation) instance,
verbatim Appendix B for the (N=6, f=1, r=1, rejuvenation) instance, and
the generalized enumeration for every other configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dspn import SteadyStateResult, solve_steady_state
from repro.nversion.conventions import OutputConvention
from repro.nversion.reliability import (
    GeneralizedReliability,
    PaperFourVersionReliability,
    PaperSixVersionReliability,
    ReliabilityFunction,
)
from repro.obs import span
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_net
from repro.perception.statemap import ModuleCounts, module_counts


def default_reliability_function(
    parameters: PerceptionParameters,
    *,
    convention: OutputConvention = OutputConvention.SAFE_SKIP,
) -> ReliabilityFunction:
    """The paper-faithful reliability function for ``parameters``.

    Returns the verbatim appendix functions for the paper's two
    instances (safe-skip convention only — the appendix formulas *are*
    the safe-skip convention); any other configuration, or a request for
    the strict-correct convention, falls back to
    :class:`GeneralizedReliability`.
    """
    if convention is OutputConvention.SAFE_SKIP:
        if (
            parameters.n_modules == 4
            and parameters.f == 1
            and not parameters.rejuvenation
        ):
            return PaperFourVersionReliability(
                p=parameters.p, p_prime=parameters.p_prime, alpha=parameters.alpha
            )
        if (
            parameters.n_modules == 6
            and parameters.f == 1
            and parameters.r == 1
            and parameters.rejuvenation
        ):
            return PaperSixVersionReliability(
                p=parameters.p, p_prime=parameters.p_prime, alpha=parameters.alpha
            )
    return GeneralizedReliability(
        n_modules=parameters.n_modules,
        threshold=parameters.voting_scheme.threshold,
        p=parameters.p,
        p_prime=parameters.p_prime,
        alpha=parameters.alpha,
        convention=convention,
    )


@dataclass
class EvaluationResult:
    """Outcome of one Eq. 1 evaluation.

    Attributes
    ----------
    expected_reliability:
        The scalar E[R_sys].
    state_probabilities:
        Steady-state probability aggregated per (i, j, k) module state.
    state_reliability:
        The reliability function value per module state.
    solution:
        The underlying DSPN steady-state solution (per-marking detail).
    """

    expected_reliability: float
    state_probabilities: dict[ModuleCounts, float]
    state_reliability: dict[ModuleCounts, float]
    solution: SteadyStateResult

    def top_states(self, limit: int = 10) -> list[tuple[ModuleCounts, float, float]]:
        """(state, probability, reliability) sorted by probability."""
        ranked = sorted(self.state_probabilities.items(), key=lambda kv: -kv[1])
        return [
            (state, probability, self.state_reliability[state])
            for state, probability in ranked[:limit]
        ]


def evaluate(
    parameters: PerceptionParameters,
    *,
    reliability: ReliabilityFunction | None = None,
    convention: OutputConvention = OutputConvention.SAFE_SKIP,
    max_states: int = 200_000,
) -> EvaluationResult:
    """Compute E[R_sys] for ``parameters`` (Eq. 1).

    Parameters
    ----------
    parameters:
        System configuration (Table II).
    reliability:
        Custom reliability function; defaults to
        :func:`default_reliability_function`.
    convention:
        Output convention used when deriving the default reliability
        function (ignored if ``reliability`` is given).
    max_states:
        Bound on the DSPN state space.
    """
    if reliability is None:
        reliability = default_reliability_function(parameters, convention=convention)

    solution = solve_steady_state(build_net(parameters), max_states=max_states)

    state_probabilities: dict[ModuleCounts, float] = {}
    state_reliability: dict[ModuleCounts, float] = {}
    rewards = np.empty(len(solution.pi), dtype=float)
    with span("dspn.rewards", markings=len(solution.pi)):
        for index, (marking, probability) in enumerate(
            zip(solution.markings, solution.pi)
        ):
            counts = module_counts(marking)
            state_probabilities[counts] = state_probabilities.get(
                counts, 0.0
            ) + float(probability)
            if counts not in state_reliability:
                state_reliability[counts] = float(
                    reliability(counts.healthy, counts.compromised, counts.unavailable)
                )
            rewards[index] = state_reliability[counts]

        # Same contraction as SteadyStateResult.expected_reward (Eq. 1),
        # with each distinct (i, j, k) evaluated once instead of per marking.
        expected = float(solution.pi @ rewards)
    return EvaluationResult(
        expected_reliability=expected,
        state_probabilities=state_probabilities,
        state_reliability=state_reliability,
        solution=solution,
    )

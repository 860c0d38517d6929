"""The :class:`PerceptionSystem` façade.

Bundles model construction, analytic evaluation, Monte-Carlo simulation
and transient analysis behind one object so the common workflows are
one-liners::

    system = PerceptionSystem(PerceptionParameters.six_version_defaults())
    system.expected_reliability()              # analytic, Eq. 1
    system.simulate(horizon=1e6, seed=7)       # Monte-Carlo cross-check
    system.to_dot()                            # Graphviz rendering
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dspn import SimulationEstimate, simulate
from repro.dspn.transient import TransientResult, transient_rewards
from repro.nversion.conventions import OutputConvention
from repro.nversion.reliability import ReliabilityFunction
from repro.perception.evaluation import (
    EvaluationResult,
    default_reliability_function,
    evaluate,
)
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_net
from repro.perception.statemap import module_counts
from repro.petri.dot import to_dot
from repro.petri.marking import Marking
from repro.petri.net import PetriNet


class PerceptionSystem:
    """An N-version perception system with optional rejuvenation.

    Parameters
    ----------
    parameters:
        The configuration (Table II values).
    reliability:
        Optional custom per-state reliability function; defaults to the
        paper-faithful choice for the configuration.
    convention:
        Output convention for the default reliability function.
    """

    def __init__(
        self,
        parameters: PerceptionParameters,
        *,
        reliability: ReliabilityFunction | None = None,
        convention: OutputConvention = OutputConvention.SAFE_SKIP,
    ) -> None:
        self.parameters = parameters
        self.convention = convention
        self.reliability = reliability or default_reliability_function(
            parameters, convention=convention
        )
        self._net: PetriNet | None = None
        self._evaluation: EvaluationResult | None = None

    @property
    def net(self) -> PetriNet:
        """The underlying DSPN (built lazily, cached)."""
        if self._net is None:
            self._net = build_net(self.parameters)
        return self._net

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyze(self, *, max_states: int = 200_000) -> EvaluationResult:
        """Full analytic evaluation (cached)."""
        if self._evaluation is None:
            self._evaluation = evaluate(
                self.parameters,
                reliability=self.reliability,
                max_states=max_states,
            )
        return self._evaluation

    def expected_reliability(self) -> float:
        """E[R_sys] (Eq. 1), the paper's headline metric."""
        return self.analyze().expected_reliability

    def _reward(self, marking: Marking) -> float:
        counts = module_counts(marking)
        return self.reliability(counts.healthy, counts.compromised, counts.unavailable)

    def simulate(
        self,
        *,
        horizon: float,
        warmup: float = 0.0,
        replications: int = 10,
        seed: int | None = None,
    ) -> SimulationEstimate:
        """Monte-Carlo estimate of E[R_sys] (cross-validates analyze())."""
        return simulate(
            self.net,
            reward=self._reward,
            horizon=horizon,
            warmup=warmup,
            replications=replications,
            seed=seed,
        )

    def transient_reliability(self, times: Sequence[float]) -> TransientResult:
        """Expected reliability trajectory from a fresh deployment.

        Only available for non-rejuvenating configurations (the clocked
        model is not a CTMC); use
        :meth:`transient_reliability_simulated` otherwise.
        """
        return transient_rewards(self.net, self._reward, times)

    def transient_reliability_simulated(
        self,
        times: Sequence[float],
        *,
        replications: int = 30,
        seed: int | None = None,
    ):
        """Monte-Carlo reliability trajectory (works for any configuration,
        including the clocked rejuvenation model)."""
        from repro.dspn import transient_profile

        return transient_profile(
            self.net,
            reward=self._reward,
            times=list(times),
            replications=replications,
            seed=seed,
        )

    def to_dot(self) -> str:
        """Graphviz rendering of the underlying DSPN."""
        return to_dot(self.net)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "rejuvenation" if self.parameters.rejuvenation else "no-rejuvenation"
        return (
            f"PerceptionSystem(n={self.parameters.n_modules}, "
            f"f={self.parameters.f}, r={self.parameters.r}, {mode})"
        )

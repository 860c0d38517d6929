"""Map every registered experiment to the nets it solves.

The verification runner does not re-execute experiments; it verifies the
*models* they rest on.  Each :class:`VerifyTarget` names one distinct
net shape an experiment solves — parameter sweeps that only change rates
share the structure of their defaults, so one representative per shape
is enough for the linter, while the certificates re-check the actual
solved distribution of that representative.

Targets hold only plain frozen data (parameters dataclass, option
pairs), so they pickle across :class:`repro.engine.SweepPlan` worker
boundaries; the net itself is rebuilt worker-side by :meth:`VerifyTarget.build`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ParameterError
from repro.experiments.registry import EXPERIMENT_IDS
from repro.perception.parameters import PerceptionParameters
from repro.petri.transition import ServerSemantics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.petri.net import PetriNet


@dataclass(frozen=True)
class VerifyTarget:
    """One net to lint and certify, rebuildable from plain data.

    Attributes
    ----------
    name:
        Stable display name, e.g. ``"ablation-clock/6v-exponential"``.
    parameters:
        The perception parameter set; ``parameters.rejuvenation``
        selects the builder.
    build_options:
        Extra keyword arguments for the builder as sorted ``(key,
        value)`` pairs (kept as a tuple so the target stays frozen and
        picklable).
    threshold:
        Voting threshold for the Eq. 1 reward checks; ``None`` uses the
        paper-faithful default reliability function.  Must be given for
        non-BFT configurations (``enforce_bft_minimum=False``) whose
        default scheme is undefined.
    max_states:
        State-space bound passed to the solver.
    """

    name: str
    parameters: PerceptionParameters
    build_options: tuple[tuple[str, Any], ...] = ()
    threshold: int | None = None
    max_states: int = 200_000

    def build(self) -> "PetriNet":
        """Construct the target's net (fresh each call)."""
        from repro.perception.rejuvenation import build_net

        return build_net(self.parameters, **dict(self.build_options))

    def reliability(self):
        """The reliability function for this target's Eq. 1 checks."""
        from repro.nversion.reliability import GeneralizedReliability
        from repro.perception.evaluation import default_reliability_function

        if self.threshold is None:
            return default_reliability_function(self.parameters)
        return GeneralizedReliability(
            n_modules=self.parameters.n_modules,
            threshold=self.threshold,
            p=self.parameters.p,
            p_prime=self.parameters.p_prime,
            alpha=self.parameters.alpha,
        )


def _four_version(name: str, **build_options: Any) -> VerifyTarget:
    return VerifyTarget(
        name=name,
        parameters=PerceptionParameters.four_version_defaults(),
        build_options=tuple(sorted(build_options.items())),
    )


def _six_version(name: str, **build_options: Any) -> VerifyTarget:
    return VerifyTarget(
        name=name,
        parameters=PerceptionParameters.six_version_defaults(),
        build_options=tuple(sorted(build_options.items())),
    )


def _defaults_pair(experiment_id: str) -> tuple[VerifyTarget, ...]:
    return (
        _four_version(f"{experiment_id}/4v"),
        _six_version(f"{experiment_id}/6v"),
    )


def _scaling_targets() -> tuple[VerifyTarget, ...]:
    return (
        VerifyTarget(
            name="scaling/5v-no-rejuvenation",
            parameters=PerceptionParameters(n_modules=5, f=1, rejuvenation=False),
        ),
        VerifyTarget(
            name="scaling/7v-rejuvenation",
            parameters=PerceptionParameters(n_modules=7, f=1, r=1, rejuvenation=True),
        ),
        VerifyTarget(
            name="scaling/9v-f2-rejuvenation",
            parameters=PerceptionParameters(n_modules=9, f=2, r=1, rejuvenation=True),
        ),
    )


def _architecture_targets() -> tuple[VerifyTarget, ...]:
    def related_work(name: str, n_modules: int, threshold: int) -> VerifyTarget:
        return VerifyTarget(
            name=name,
            parameters=PerceptionParameters(
                n_modules=n_modules,
                f=1,
                r=1,
                rejuvenation=False,
                enforce_bft_minimum=False,
            ),
            threshold=threshold,
        )

    return (
        related_work("architectures/2v-agreement", 2, 2),
        related_work("architectures/3v-majority", 3, 2),
        related_work("architectures/5v-unanimity", 5, 5),
        _four_version("architectures/4v-bft"),
        _six_version("architectures/6v-bft-rejuvenation"),
    )


_TARGETS: dict[str, tuple[VerifyTarget, ...]] = {
    "table2-defaults": _defaults_pair("table2-defaults"),
    "fig3": (_six_version("fig3/6v"),),
    "fig4a": _defaults_pair("fig4a"),
    "fig4b": _defaults_pair("fig4b"),
    "fig4c": _defaults_pair("fig4c"),
    "fig4d": _defaults_pair("fig4d"),
    "scaling": _scaling_targets(),
    "architectures": _architecture_targets(),
    "phase-diagram": _defaults_pair("phase-diagram"),
    "ablation-selection": tuple(
        _six_version(f"ablation-selection/6v-{policy}", selection=policy)
        for policy in ("uniform", "oracle", "anti-oracle")
    ),
    "ablation-clock": tuple(
        _six_version(f"ablation-clock/6v-{clock}", clock=clock)
        for clock in ("deterministic", "exponential")
    ),
    "ablation-server": (
        _four_version("ablation-server/4v-single", server=ServerSemantics.SINGLE),
        _six_version("ablation-server/6v-single", server=ServerSemantics.SINGLE),
        _four_version("ablation-server/4v-infinite", server=ServerSemantics.INFINITE),
        _six_version("ablation-server/6v-infinite", server=ServerSemantics.INFINITE),
    ),
    "ablation-ticks": (
        _six_version("ablation-ticks/6v-deferred", lost_ticks=False),
        _six_version("ablation-ticks/6v-lost", lost_ticks=True),
    ),
    "ablation-threshold": (_six_version("ablation-threshold/6v"),),
    "ablation-downtime": (_six_version("ablation-downtime/6v"),),
    "monitor-policies": (_six_version("monitor-policies/6v"),),
}

# every registered experiment must map to at least one target (guarded at
# import time so a new experiment cannot silently escape verification)
_missing = [e for e in EXPERIMENT_IDS if e not in _TARGETS]
if _missing:  # pragma: no cover - registry drift guard
    raise RuntimeError(
        f"experiments without verify targets: {', '.join(sorted(_missing))}"
    )


def experiment_targets(experiment_id: str) -> tuple[VerifyTarget, ...]:
    """The nets to verify for one registered experiment.

    Raises
    ------
    ParameterError
        For unknown ids (the message lists the valid ones, sorted).
    """
    targets = _TARGETS.get(experiment_id)
    if targets is None:
        raise ParameterError(
            f"unknown experiment {experiment_id!r}; "
            f"valid ids: {', '.join(sorted(EXPERIMENT_IDS))}"
        )
    return targets


def paper_net_targets() -> tuple[VerifyTarget, ...]:
    """The three paper nets for the simulator-agreement oracle.

    Fig. 2(a) is the four-version clockless model (CTMC), Fig. 2(b) the
    six-version rejuvenation model with its clock behaviour abstracted
    to an exponential of the same mean (CTMC), and Fig. 2(c) the full
    DSPN with the deterministic period (MRGP).
    """
    return (
        _four_version("fig2a/4v-no-rejuvenation"),
        _six_version("fig2b/6v-exponential-clock", clock="exponential"),
        _six_version("fig2c/6v-deterministic-clock", clock="deterministic"),
    )

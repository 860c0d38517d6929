"""Perception-system reliability models (the paper's §III-§IV).

This package ties together the substrates:

* :class:`~repro.perception.parameters.PerceptionParameters` — the input
  parameters of Table II, with the paper's defaults;
* :func:`~repro.perception.no_rejuvenation.build_no_rejuvenation_net` —
  the DSPN of Fig. 2(a);
* :func:`~repro.perception.rejuvenation.build_rejuvenation_net` — the
  DSPNs of Fig. 2(b)+(c), including the Table I guards and weights;
* :func:`~repro.perception.rejuvenation.build_net` — whichever of the
  two a configuration's ``rejuvenation`` flag selects;
* :func:`~repro.perception.fleet.build_fleet_net` — the fleet-scale
  perception × rejuvenation-clock × maintenance product net (large-N
  workloads for the sparse solver route);
* :func:`~repro.perception.evaluation.evaluate` — the Eq. 1 pipeline
  (steady-state probabilities x reliability rewards);
* :class:`~repro.perception.architecture.PerceptionSystem` — a façade
  bundling model construction, analytic evaluation, simulation and
  transient analysis.

Quickstart::

    from repro.perception import PerceptionParameters, PerceptionSystem

    four_version = PerceptionSystem(PerceptionParameters.four_version_defaults())
    six_version = PerceptionSystem(PerceptionParameters.six_version_defaults())
    print(four_version.expected_reliability())   # ~0.8223
    print(six_version.expected_reliability())    # ~0.9430
"""

from repro.perception.architecture import PerceptionSystem
from repro.perception.evaluation import EvaluationResult, evaluate
from repro.perception.metrics import (
    exact_rate_elasticities,
    expected_misperceptions,
    mean_time_to_quorum_loss,
    quorum_loss_probability,
)
from repro.perception.fleet import FleetParameters, build_fleet_net
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_net, build_rejuvenation_net
from repro.perception.statemap import ModuleCounts, module_counts

__all__ = [
    "EvaluationResult",
    "FleetParameters",
    "ModuleCounts",
    "PerceptionParameters",
    "PerceptionSystem",
    "build_fleet_net",
    "build_net",
    "build_no_rejuvenation_net",
    "build_rejuvenation_net",
    "evaluate",
    "exact_rate_elasticities",
    "expected_misperceptions",
    "mean_time_to_quorum_loss",
    "module_counts",
    "quorum_loss_probability",
]

"""The DSPNs of Fig. 2(b)+(c): perception system with time-based rejuvenation.

On top of the module life-cycle of Fig. 2(a) (places ``Pmh``/``Pmc``/
``Pmf``, transitions ``Tc``/``Tf``/``Tr``), the rejuvenation mechanism
adds:

* the **clock** (Fig. 2b): place ``Prc`` (one token), deterministic
  transition ``Trc`` with delay 1/γ moving the token to ``Ptr``;
* the **selection chain** (Fig. 2c, Table I):

  - ``Tac`` (immediate, guard g1 ``#Pac + #Pmr = 0``) acknowledges the
    tick and deposits ``r`` activation tokens in ``Pac``;
  - ``Trj1``/``Trj2`` (immediate, guard g2 ``#Pmf + #Pmr < r``, weights
    w1/w2) move a compromised/healthy module to the rejuvenating place
    ``Pmr`` — the weights make the choice uniform over operational
    modules because the system cannot tell healthy from compromised
    apart;
  - ``Trt`` (immediate, guard g3 ``#Pmr + #Pac > 0``, lower priority)
    returns the clock token to ``Prc``;
  - ``Trj`` (exponential, mean ``#Pmr × rejuvenation_time``) completes
    the rejuvenation, returning ``min(#Pmr, r)`` modules to ``Pmh``
    (arc weights w5/w6).

Activation tokens blocked by g2 (a module failed or still rejuvenating
at tick time) stay queued in ``Pac`` and complete as soon as g2 holds —
the "deferred rejuvenation" reading of Table I; with Table II defaults
its effect is below 1e-4 in E[R] (see DESIGN.md §3).
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.perception.no_rejuvenation import (
    PLACE_COMPROMISED,
    PLACE_FAILED,
    PLACE_HEALTHY,
    PLACE_REJUVENATING,
    build_no_rejuvenation_net,
)
from repro.perception.parameters import PerceptionParameters
from repro.petri import NetBuilder, PetriNet, ServerSemantics, count
from repro.petri.marking import Marking

PLACE_CLOCK = "Prc"
PLACE_TICK = "Ptr"
PLACE_ACTIVATION = "Pac"

# Table I uses a tiny epsilon weight instead of zero when one of the two
# module pools is empty, to keep the weight expressions well-defined.
_EPSILON_WEIGHT = 0.00001

#: Selection policies for which module a tick rejuvenates (the w1/w2
#: weights).  ``"uniform"`` is the paper's blind choice; ``"oracle"``
#: models perfect compromise detection (always cleanse a compromised
#: module when one exists); ``"anti-oracle"`` is the adversarial worst
#: case (always waste the slot on a healthy module when one exists).
SELECTION_POLICIES = ("uniform", "oracle", "anti-oracle")

#: Clock kinds for the ablation of determinism: the paper's
#: ``"deterministic"`` period vs an ``"exponential"`` memoryless clock
#: with the same mean (which turns the whole model into a CTMC).
CLOCK_KINDS = ("deterministic", "exponential")


def _selection_weights(policy: str):
    """(w1, w2) weight functions for the chosen selection policy."""

    def uniform_compromised(marking: Marking) -> float:
        compromised = marking[PLACE_COMPROMISED]
        healthy = marking[PLACE_HEALTHY]
        if compromised == 0:
            return _EPSILON_WEIGHT
        return compromised / (compromised + healthy)

    def uniform_healthy(marking: Marking) -> float:
        compromised = marking[PLACE_COMPROMISED]
        healthy = marking[PLACE_HEALTHY]
        if healthy == 0:
            return _EPSILON_WEIGHT
        return healthy / (compromised + healthy)

    if policy == "uniform":
        return uniform_compromised, uniform_healthy
    if policy == "oracle":
        # overwhelming weight on the compromised pool; Trj1 is disabled
        # structurally when Pmc is empty, so the healthy fallback still
        # works.
        return (lambda _m: 1.0), (lambda _m: _EPSILON_WEIGHT)
    if policy == "anti-oracle":
        return (lambda _m: _EPSILON_WEIGHT), (lambda _m: 1.0)
    raise ParameterError(
        f"unknown selection policy {policy!r}; choose from {SELECTION_POLICIES}"
    )


def build_rejuvenation_net(
    parameters: PerceptionParameters,
    *,
    server: ServerSemantics = ServerSemantics.SINGLE,
    selection: str = "uniform",
    clock: str = "deterministic",
    lost_ticks: bool = False,
) -> PetriNet:
    """Build the Fig. 2(b)+(c) net for ``parameters``.

    Parameters
    ----------
    server:
        Firing semantics of the exponential transitions (single-server
        is the calibrated default).
    selection:
        Which module a tick rejuvenates — see :data:`SELECTION_POLICIES`.
    clock:
        ``"deterministic"`` (the paper, solved as an MRGP) or
        ``"exponential"`` (same mean interval, solved as a CTMC) — see
        :data:`CLOCK_KINDS`.
    lost_ticks:
        If true, activation tokens that guard g2 blocks are flushed when
        the clock resets (the tick is lost) instead of staying queued
        until the guard allows (the paper's Table I reading).
    """
    n, r = parameters.n_modules, parameters.r
    builder = NetBuilder(f"perception-{n}v-rejuvenation")

    # -- module life-cycle (as Fig. 2a) ---------------------------------
    builder.place(PLACE_HEALTHY, tokens=n, label="healthy")
    builder.place(PLACE_COMPROMISED, label="compromised")
    builder.place(PLACE_FAILED, label="non-operational")
    builder.place(PLACE_REJUVENATING, label="rejuvenating")
    builder.exponential(
        "Tc",
        rate=parameters.lambda_c,
        server=server,
        inputs={PLACE_HEALTHY: 1},
        outputs={PLACE_COMPROMISED: 1},
    )
    builder.exponential(
        "Tf",
        rate=parameters.lambda_f,
        server=server,
        inputs={PLACE_COMPROMISED: 1},
        outputs={PLACE_FAILED: 1},
    )
    builder.exponential(
        "Tr",
        rate=parameters.mu,
        server=server,
        inputs={PLACE_FAILED: 1},
        outputs={PLACE_HEALTHY: 1},
    )

    # -- rejuvenation clock (Fig. 2b) ------------------------------------
    builder.place(PLACE_CLOCK, tokens=1, label="clock armed")
    builder.place(PLACE_TICK, label="tick pending")
    builder.place(PLACE_ACTIVATION, label="activation tokens")
    if clock == "deterministic":
        builder.deterministic(
            "Trc",
            delay=parameters.rejuvenation_interval,
            inputs={PLACE_CLOCK: 1},
            outputs={PLACE_TICK: 1},
        )
    elif clock == "exponential":
        builder.exponential(
            "Trc",
            rate=parameters.gamma,
            inputs={PLACE_CLOCK: 1},
            outputs={PLACE_TICK: 1},
        )
    else:
        raise ParameterError(
            f"unknown clock kind {clock!r}; choose from {CLOCK_KINDS}"
        )

    # -- Table I guards ---------------------------------------------------
    guard_acknowledge = (count(PLACE_ACTIVATION) + count(PLACE_REJUVENATING)) == 0
    guard_capacity = (count(PLACE_FAILED) + count(PLACE_REJUVENATING)) < r
    guard_reset = (count(PLACE_REJUVENATING) + count(PLACE_ACTIVATION)) > 0

    # -- selection chain (Fig. 2c) ---------------------------------------
    weight_compromised, weight_healthy = _selection_weights(selection)
    # Tac keeps the tick token in Ptr (test-arc idiom: consume + produce)
    # and emits r activation tokens (arc weight w3).
    builder.immediate(
        "Tac",
        priority=3,
        guard=guard_acknowledge,
        inputs={PLACE_TICK: 1},
        outputs={PLACE_TICK: 1, PLACE_ACTIVATION: r},
    )
    builder.immediate(
        "Trj1",
        priority=2,
        weight=weight_compromised,
        guard=guard_capacity,
        inputs={PLACE_COMPROMISED: 1, PLACE_ACTIVATION: 1},
        outputs={PLACE_REJUVENATING: 1},
    )
    builder.immediate(
        "Trj2",
        priority=2,
        weight=weight_healthy,
        guard=guard_capacity,
        inputs={PLACE_HEALTHY: 1, PLACE_ACTIVATION: 1},
        outputs={PLACE_REJUVENATING: 1},
    )
    # Trt resets the clock; with lost_ticks it also flushes any blocked
    # activation tokens so the tick is forfeited rather than deferred.
    trt_inputs: dict = {PLACE_TICK: 1}
    trt_outputs: dict = {PLACE_CLOCK: 1}
    if lost_ticks:
        trt_inputs[PLACE_ACTIVATION] = lambda marking: marking[PLACE_ACTIVATION]
    builder.immediate(
        "Trt",
        priority=1,
        guard=guard_reset,
        inputs=trt_inputs,
        outputs=trt_outputs,
    )

    # -- rejuvenation completion (Trj, arc weights w5/w6) -----------------
    def batch_size(marking: Marking) -> int:
        return min(marking[PLACE_REJUVENATING], r)

    builder.exponential(
        "Trj",
        rate=lambda marking: 1.0
        / (parameters.rejuvenation_time_per_module * marking[PLACE_REJUVENATING]),
        guard=count(PLACE_REJUVENATING) > 0,
        inputs={PLACE_REJUVENATING: batch_size},
        outputs={PLACE_HEALTHY: batch_size},
    )
    return builder.build()


def build_net(parameters: PerceptionParameters, **options) -> PetriNet:
    """The Fig. 2 net for ``parameters``: (b)+(c) if it rejuvenates, else (a).

    ``options`` pass through to the chosen builder: ``server`` for both,
    plus ``selection``, ``clock`` and ``lost_ticks`` for rejuvenating nets.
    """
    if parameters.rejuvenation:
        return build_rejuvenation_net(parameters, **options)
    return build_no_rejuvenation_net(parameters, **options)

"""Reachability analysis and vanishing-marking elimination.

Turning a DSPN into a solvable stochastic process takes two steps:

1. :func:`~repro.statespace.reachability.explore` enumerates all markings
   reachable from the initial marking and classifies each as *tangible*
   (only timed transitions enabled — time passes there) or *vanishing*
   (at least one immediate transition enabled — left in zero time).
2. :func:`~repro.statespace.vanishing.eliminate_vanishing` removes the
   vanishing markings, redirecting every timed firing to the distribution
   of tangible markings ultimately reached through the immediate firings
   (including immediate cycles, handled by a linear solve).

The result, a :class:`~repro.statespace.graph.TangibleGraph`, is consumed
by the CTMC and MRGP builders in :mod:`repro.dspn`.

:func:`tangible_reachability` runs both steps once per net *structure*:
while the engine cache is enabled it keeps each explored graph's
:class:`~repro.statespace.graph.GraphStructure` and re-rates it for
every later net that differs only in exponential rates or
deterministic delays.
"""

from repro.obs import span
from repro.statespace.graph import (
    DeterministicEdge,
    ExponentialEdge,
    GraphStructure,
    RawGraph,
    TangibleGraph,
)
from repro.statespace.reachability import explore
from repro.statespace.vanishing import eliminate_vanishing

__all__ = [
    "DeterministicEdge",
    "ExponentialEdge",
    "GraphStructure",
    "RawGraph",
    "TangibleGraph",
    "eliminate_vanishing",
    "explore",
]


def tangible_reachability(net, *, max_states: int = 200_000) -> TangibleGraph:
    """Explore ``net`` and eliminate vanishing markings in one call.

    While the engine cache is enabled (:func:`repro.engine.active_cache`
    is not ``None``) the graph comes from its structure tier: a net
    whose structure was explored before under the same ``max_states``
    is re-rated (:meth:`GraphStructure.rerate`), giving exactly the
    graph a fresh exploration would.  ``--no-cache`` and
    ``configure_cache(enabled=False)`` turn the tier off.
    """
    # Lazy import: the engine imports the solvers, which import this package.
    from repro.engine.cache import active_cache
    from repro.engine.hashing import structure_cache_key

    cache = active_cache()
    if cache is None:
        return eliminate_vanishing(explore(net, max_states=max_states))
    key = structure_cache_key(net, max_states=max_states)
    structure = cache.get_structure(key)
    if structure is not None:
        with span("statespace.rerate", states=structure.n_states):
            return structure.rerate(net)
    raw = explore(net, max_states=max_states)
    graph = eliminate_vanishing(raw)
    cache.put_structure(key, GraphStructure.of(raw, graph))
    return graph

"""Data types for reachability graphs."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.petri.marking import Marking

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.petri.net import PetriNet


@dataclass(frozen=True, slots=True)
class RawEdge:
    """A single firing in the raw (pre-elimination) reachability graph."""

    transition: str
    target: int
    kind: str  # "immediate" | "exponential" | "deterministic"
    value: float  # weight (immediate), rate (exponential) or delay (deterministic)
    degree: int = 1  # enabling degree of the transition in the source marking


@dataclass
class RawGraph:
    """Full reachability graph with tangible and vanishing markings.

    ``edges[i]`` lists the firings out of marking ``i``.  For vanishing
    markings only the highest-priority enabled immediate transitions are
    listed (their ``value`` is the un-normalized weight); for tangible
    markings all enabled timed transitions are listed.
    """

    markings: list[Marking]
    edges: list[list[RawEdge]]
    vanishing: list[bool]
    initial: int

    @property
    def n_states(self) -> int:
        return len(self.markings)

    def tangible_indices(self) -> list[int]:
        return [i for i, is_vanishing in enumerate(self.vanishing) if not is_vanishing]


@dataclass(frozen=True, slots=True)
class ExponentialEdge:
    """An exponential firing between tangible markings.

    ``targets`` is the distribution over tangible successor indices after
    vanishing elimination: a list of ``(tangible_index, probability)``
    pairs summing to 1.
    """

    transition: str
    rate: float
    targets: tuple[tuple[int, float], ...]


@dataclass(frozen=True, slots=True)
class DeterministicEdge:
    """A deterministic firing between tangible markings (same layout)."""

    transition: str
    delay: float
    targets: tuple[tuple[int, float], ...]


@dataclass
class TangibleGraph:
    """Reachability graph restricted to tangible markings.

    Attributes
    ----------
    markings:
        The tangible markings; indices below refer to this list.
    initial_distribution:
        Probability distribution over tangible markings equivalent to the
        net's initial marking (non-degenerate when the initial marking is
        vanishing).
    exponential_edges / deterministic_edges:
        Outgoing timed firings per tangible marking, with successor
        *distributions* (vanishing chains already folded in).
    """

    markings: list[Marking]
    initial_distribution: list[float]
    exponential_edges: list[list[ExponentialEdge]] = field(default_factory=list)
    deterministic_edges: list[list[DeterministicEdge]] = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return len(self.markings)

    def has_deterministic(self) -> bool:
        """Whether any tangible marking enables a deterministic transition."""
        return any(edges for edges in self.deterministic_edges)

    def exit_rate(self, state: int) -> float:
        """Total exponential rate out of ``state``."""
        return sum(edge.rate for edge in self.exponential_edges[state])

    def timed_edge_count(self) -> int:
        """Number of (source, target) rate contributions across all states.

        An upper bound on the off-diagonal nnz of the CTMC generator
        (edges to the same target coalesce; self-loops drop out), cheap
        to compute without building any matrix — the solver's auto
        routing uses it to estimate generator density.
        """
        return sum(
            len(edge.targets)
            for edges in self.exponential_edges
            for edge in edges
        )

    def generator_density(self) -> float:
        """Estimated nnz / n² of the CTMC generator (diagonal included)."""
        n = self.n_states
        if n == 0:
            return 0.0
        return min(1.0, (self.timed_edge_count() + n) / (n * n))


@dataclass(frozen=True)
class GraphStructure:
    """The rate-free part of a :class:`TangibleGraph`.

    Everything reachability and vanishing elimination decide — tangible
    markings, successor distributions, the initial distribution — with
    the timed edges as flat columns in exploration order: source index,
    transition name, enabling degree and ``targets`` tuple.  Markings
    and ``targets`` tuples are shared with the graph the structure was
    taken from, not copied.

    :meth:`rerate` rebuilds the graph of any net with this structure by
    evaluating only exponential rates and deterministic delays, exactly
    as :func:`~repro.statespace.reachability.explore` would.
    """

    markings: tuple[Marking, ...]
    initial_distribution: tuple[float, ...]
    sources: array
    transitions: tuple[str, ...]
    degrees: array
    targets: tuple[tuple[tuple[int, float], ...], ...]

    @classmethod
    def of(cls, raw: RawGraph, graph: TangibleGraph) -> "GraphStructure":
        """The structure of ``graph``, eliminated from ``raw``.

        Enabling degrees come from the raw edges, so taking the
        structure never re-evaluates the net.
        """
        sources, degrees = array("i"), array("i")
        transitions: list[str] = []
        targets: list[tuple[tuple[int, float], ...]] = []
        for source, raw_index in enumerate(raw.tangible_indices()):
            eliminated = {
                "exponential": iter(graph.exponential_edges[source]),
                "deterministic": iter(graph.deterministic_edges[source]),
            }
            for edge in raw.edges[raw_index]:
                sources.append(source)
                transitions.append(edge.transition)
                degrees.append(edge.degree)
                targets.append(next(eliminated[edge.kind]).targets)
        return cls(
            markings=tuple(graph.markings),
            initial_distribution=tuple(graph.initial_distribution),
            sources=sources,
            transitions=tuple(transitions),
            degrees=degrees,
            targets=tuple(targets),
        )

    @property
    def n_states(self) -> int:
        return len(self.markings)

    def rerate(self, net: "PetriNet") -> TangibleGraph:
        """The tangible graph of ``net``, which must share this structure.

        Each exponential edge gets ``rate_in(source marking, degree)``
        from ``net`` and each deterministic edge ``net``'s delay; edge
        order, targets and markings are this structure's.
        """
        transitions = net.transitions
        markings = self.markings
        exponential: list[list[ExponentialEdge]] = [[] for _ in markings]
        deterministic: list[list[DeterministicEdge]] = [[] for _ in markings]
        for source, name, degree, targets in zip(
            self.sources, self.transitions, self.degrees, self.targets
        ):
            transition = transitions[name]
            if transition.kind == "exponential":
                rate = transition.rate_in(markings[source], degree)
                exponential[source].append(ExponentialEdge(name, rate, targets))
            else:
                deterministic[source].append(
                    DeterministicEdge(name, transition.delay, targets)
                )
        return TangibleGraph(
            markings=list(markings),
            initial_distribution=list(self.initial_distribution),
            exponential_edges=exponential,
            deterministic_edges=deterministic,
        )

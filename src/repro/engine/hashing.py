"""Canonical, content-addressed fingerprints of Petri nets.

The sweep engine memoizes steady-state solutions keyed by *what the net
is*, not by how it was assembled.  Two nets built in different
place/transition insertion orders — or by different builder code paths —
must hash identically whenever they describe the same model, and nets
that differ in any rate, delay, weight, guard, marking or arc must hash
differently.

Structural data (place names, initial tokens, capacities, arc wiring,
transition kinds, priorities, server semantics, delays) is serialized
directly, with every element list sorted by name so insertion order
cannot leak into the digest.  Behavioural data — rates, weights, arc
multiplicities and guards, all of which may be arbitrary ``Marking ->
value`` callables — cannot be serialized, so it is *probed*: each
callable is evaluated on a deterministic family of markings derived from
the net's places (the initial marking, the empty and all-ones markings,
and single-place perturbations).  A callable that raises on a probe
contributes the exception type, which is itself deterministic.

Probing is a semantic fingerprint, not a proof of equality: two
callables that agree on every probe but differ on some reachable marking
would collide.  The probe family is chosen to separate every
marking-dependent expression appearing in the perception models (token
counts, ratios such as ``#Pmc / (#Pmc + #Pmh)``, and ``min``/``max``
batch weights); see ``docs/ENGINE.md`` for the invalidation rules.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Iterable
from contextlib import contextmanager
from contextvars import ContextVar

from repro.petri.arc import Arc
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.transition import (
    DeterministicTransition,
    ExponentialTransition,
    ImmediateTransition,
)

#: Bump whenever the serialization format below changes; old cache
#: entries (in memory or on disk) then miss instead of aliasing.
FINGERPRINT_VERSION = 1

#: Token-count levels used for the single-place probe markings.
_PROBE_LEVELS = (1, 2, 5)


def probe_markings(net: PetriNet) -> list[Marking]:
    """Deterministic probe family for ``net``'s marking-dependent callables.

    Contains (in fixed order): the initial marking, the empty marking,
    the all-ones marking, and, for every place in sorted name order, the
    markings that put 1, 2 and 5 tokens on that place alone as well as
    the initial marking with that place perturbed by +1.
    """
    names = sorted(net.places)
    initial = {name: net.places[name].tokens for name in names}
    probes: list[dict[str, int]] = [
        dict(initial),
        {},
        {name: 1 for name in names},
    ]
    for name in names:
        for level in _PROBE_LEVELS:
            probes.append({name: level})
        bumped = dict(initial)
        bumped[name] = bumped.get(name, 0) + 1
        probes.append(bumped)
    index = {name: position for position, name in enumerate(names)}
    markings = []
    for probe in probes:
        counts = [0] * len(names)
        for name, value in probe.items():
            counts[index[name]] = value
        markings.append(Marking(index, tuple(counts)))
    return markings


def _probe(callable_, markings: Iterable[Marking]) -> str:
    """Evaluate a callable over the probes; exceptions fingerprint too."""
    samples = []
    for marking in markings:
        try:
            samples.append(repr(callable_(marking)))
        except Exception as error:  # deliberate: any failure is a sample
            samples.append(f"!{type(error).__name__}")
    return ",".join(samples)


def _arc_line(arc: Arc, markings: list[Marking]) -> str:
    constant = getattr(arc, "_constant", None)
    if getattr(arc, "_multiplicity", None) is None:
        multiplicity = f"const:{constant}"
    else:
        multiplicity = f"fn:{_probe(arc.multiplicity_in, markings)}"
    return f"arc|{arc.transition}|{arc.kind.value}|{arc.place}|{multiplicity}"


#: Per-evaluation memo of :func:`net_digests`, by net identity; ``None``
#: outside :func:`digest_scope`.  A context variable, so threads that
#: evaluate concurrently never share one.
_SCOPE: ContextVar[dict | None] = ContextVar("repro_net_digests", default=None)


@contextmanager
def digest_scope():
    """Probe each net object at most once inside the block.

    One evaluation asks for a net's identity up to three times: the
    reward key, the solver key or certificate, and the structure key
    behind :func:`repro.statespace.tangible_reachability`.  Inside this
    scope they share one probe pass.  The memo lives only as long as
    the outermost scope, so a net changed between evaluations is
    probed afresh.
    """
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def net_digests(net: PetriNet) -> tuple[str, str]:
    """``(full, structure)`` SHA-256 digests of ``net`` from one probe pass.

    The full digest is :func:`net_fingerprint`.  The structure digest
    serializes the same net *minus* exponential rates and deterministic
    delays — everything reachability and vanishing elimination depend
    on (places, tokens, capacities, arcs and multiplicities, guards,
    priorities, server semantics, immediate weights) — plus the place
    and transition insertion order, which fixes marking layout and edge
    order in an explored graph.
    """
    memo = _SCOPE.get()
    if memo is not None:
        found = memo.get(id(net))
        if found is not None and found[0] is net:
            return found[1]
    digests = _serialize(net)
    if memo is not None:
        memo[id(net)] = (net, digests)
    return digests


def _serialize(net: PetriNet) -> tuple[str, str]:
    """The probe pass behind :func:`net_digests`."""
    markings = probe_markings(net)
    shared = []
    for name in sorted(net.places):
        place = net.places[name]
        shared.append(f"place|{name}|tokens={place.tokens}|capacity={place.capacity}")

    full = [f"repro-net-fingerprint/v{FINGERPRINT_VERSION}", *shared]
    structure = [
        f"repro-net-structure/v{FINGERPRINT_VERSION}",
        f"order|{','.join(net.places)}|{','.join(net.transitions)}",
        *shared,
    ]
    for name in sorted(net.transitions):
        transition = net.transitions[name]
        guard = (
            "none"
            if transition.guard is None
            else _probe(transition.guard_satisfied, markings)
        )
        head = f"transition|{name}|{transition.kind}|guard={guard}"
        if isinstance(transition, ExponentialTransition):
            server = f"server={transition.server.value}"
            full.append(f"{head}|rate={_probe(transition.rate, markings)}|{server}")
            structure.append(f"{head}|{server}")
        elif isinstance(transition, ImmediateTransition):
            line = (
                f"{head}|weight={_probe(transition.weight, markings)}"
                f"|priority={transition.priority}"
            )
            full.append(line)
            structure.append(line)
        elif isinstance(transition, DeterministicTransition):
            full.append(f"{head}|delay={transition.delay!r}")
            structure.append(head)
        else:  # pragma: no cover - no other kinds exist today
            full.append(f"{head}|kind-only")
            structure.append(f"{head}|kind-only")

    arcs = sorted(_arc_line(arc, markings) for arc in net.arcs)
    return _sha256(full + arcs), _sha256(structure + arcs)


def _sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def net_fingerprint(net: PetriNet) -> str:
    """SHA-256 hex digest identifying ``net`` up to probe resolution.

    Invariant under place/transition/arc insertion order; sensitive to
    every name, initial token count, capacity, rate, weight, priority,
    delay, guard behaviour, server semantics and arc multiplicity.
    The net's *name* is deliberately excluded — it is a display label.
    """
    return net_digests(net)[0]


def structure_cache_key(net: PetriNet, *, max_states: int) -> str:
    """Key of ``net``'s tangible graph in the cache's structure tier.

    Nets that differ only in exponential rates or deterministic delays
    share it (see :func:`net_digests`); ``max_states`` is included
    because it decides whether exploration succeeds at all.
    """
    base = f"structure|{net_digests(net)[1]}|max_states={max_states}"
    return hashlib.sha256(base.encode()).hexdigest()


def solver_cache_key(net: PetriNet, *, max_states: int, method: str) -> str:
    """Content-addressed key for one steady-state solve.

    Includes the solver options because they change the *outcome*:
    ``max_states`` bounds reachability (a net solvable under one bound
    may raise under another) and ``method`` selects the analytic route.
    """
    base = f"{net_fingerprint(net)}|max_states={max_states}|method={method}"
    return hashlib.sha256(base.encode()).hexdigest()


def reliability_fingerprint(reliability: object) -> str | None:
    """Canonical identity of a reliability function, or ``None``.

    Every reliability function shipped by :mod:`repro.nversion` is a
    frozen dataclass over scalars, so its class plus field values pin
    its behaviour exactly.  Anything else (a lambda, a closure) has no
    stable identity — return ``None`` and let callers skip memoization
    rather than risk keying on a memory address.
    """
    if dataclasses.is_dataclass(reliability) and not isinstance(reliability, type):
        cls = type(reliability)
        fields = ",".join(
            f"{field.name}={getattr(reliability, field.name)!r}"
            for field in sorted(dataclasses.fields(reliability), key=lambda f: f.name)
        )
        return f"{cls.__module__}.{cls.__qualname__}({fields})"
    return None


def reward_cache_key(
    net: PetriNet, *, reliability_fp: str, max_states: int
) -> str:
    """Content-addressed key for one expected-reward scalar.

    The derived-value tier of the cache: E[R_sys] for (net, reliability
    function, solver bound).  Keys are disjoint from solver keys by the
    leading tag.
    """
    base = (
        f"reward|{net_fingerprint(net)}|{reliability_fp}"
        f"|max_states={max_states}"
    )
    return hashlib.sha256(base.encode()).hexdigest()

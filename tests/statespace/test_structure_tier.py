"""The structure tier behind ``tangible_reachability``.

A net whose structure was explored before is re-rated instead of
re-explored.  The certificates cannot vouch for that (they check the
solution of whatever graph they are given), so the proof here is
differential: a re-rated graph equals a fresh
``eliminate_vanishing(explore(net))`` exactly — markings, edge order,
rates, delays, targets and initial distribution.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.statespace as statespace
from repro.engine import cache_override
from repro.engine.cache import STRUCTURE_MAXSIZE, SolverCache
from repro.errors import StateSpaceError
from repro.nversion.voting import (
    bft_minimum_modules,
    bft_rejuvenation_minimum_modules,
)
from repro.obs import registry_override
from repro.perception import build_net
from repro.perception.fleet import FleetParameters, build_fleet_net
from repro.perception.parameters import PerceptionParameters
from repro.petri import NetBuilder
from repro.statespace import (
    eliminate_vanishing,
    explore,
    tangible_reachability,
)


def _fresh(net, max_states: int = 200_000):
    return eliminate_vanishing(explore(net, max_states=max_states))


def assert_identical(graph, fresh) -> None:
    assert [m.counts for m in graph.markings] == [m.counts for m in fresh.markings]
    assert graph.markings == fresh.markings
    assert graph.initial_distribution == fresh.initial_distribution
    assert graph.exponential_edges == fresh.exponential_edges
    assert graph.deterministic_edges == fresh.deterministic_edges


def _rerated(first, second):
    """Seed the tier with ``first``, then return ``second``'s re-rated graph."""
    with cache_override(enabled=True, directory=None) as cache:
        tangible_reachability(first)
        hits = cache.structure_hits
        graph = tangible_reachability(second)
        assert cache.structure_hits == hits + 1, "expected a structure hit"
    return graph


# -- Fig. 2 nets over (N, f, r) and rate/delay draws -----------------------

_means = st.floats(min_value=0.5, max_value=20_000.0, allow_nan=False)


@st.composite
def _fig2_pairs(draw):
    """Two Fig. 2 parameter sets sharing one structure, plus build options."""
    rejuvenation = draw(st.booleans())
    f = draw(st.integers(min_value=1, max_value=2))
    r = draw(st.integers(min_value=1, max_value=2))
    minimum = (
        bft_rejuvenation_minimum_modules(f, r)
        if rejuvenation
        else bft_minimum_modules(f)
    )
    n_modules = draw(st.integers(min_value=minimum, max_value=minimum + 1))
    base = PerceptionParameters(
        n_modules=n_modules, f=f, r=r, rejuvenation=rejuvenation
    )

    def rates() -> PerceptionParameters:
        return dataclasses.replace(
            base,
            mttc=draw(_means),
            mttf=draw(_means),
            mttr=draw(_means),
            rejuvenation_time_per_module=draw(_means),
            rejuvenation_interval=draw(_means),
        )

    options: dict = {}
    if rejuvenation:
        options["lost_ticks"] = draw(st.booleans())
        options["clock"] = draw(st.sampled_from(["deterministic", "exponential"]))
    return rates(), rates(), options


class TestRerateEqualsFresh:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_fig2_pairs())
    def test_fig2_nets(self, pair):
        first_parameters, second_parameters, options = pair
        first = build_net(first_parameters, **options)
        second = build_net(second_parameters, **options)
        assert_identical(_rerated(first, second), _fresh(second))

    def test_marking_dependent_rate_is_evaluated_per_source(self):
        """``Trj``'s rate is 1 / (time × #Pmr): one value per marking."""
        six = PerceptionParameters.six_version_defaults(r=2, n_modules=8)
        first = build_net(six)
        second = build_net(
            dataclasses.replace(six, rejuvenation_time_per_module=7.5)
        )
        graph = _rerated(first, second)
        trj_rates = {
            edge.rate
            for edges in graph.exponential_edges
            for edge in edges
            if edge.transition == "Trj"
        }
        assert len(trj_rates) > 1
        assert_identical(graph, _fresh(second))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nv15_fleet_variants(self, seed):
        rng = random.Random(seed)

        def variant() -> FleetParameters:
            return FleetParameters.nv15_defaults(
                perception=PerceptionParameters(
                    n_modules=15,
                    f=2,
                    r=2,
                    rejuvenation=True,
                    mttc=rng.uniform(800.0, 3000.0),
                    mttf=rng.uniform(2000.0, 4000.0),
                ),
                mean_maintenance_time=rng.uniform(100.0, 300.0),
                mean_dispatch_time=rng.uniform(10.0, 60.0),
            )

        second = build_fleet_net(variant())
        graph = _rerated(build_fleet_net(variant()), second)
        assert_identical(graph, _fresh(second))


# -- what the key keeps and drops --------------------------------------------


def _toy(
    *,
    rate: float = 1.0,
    delay: float = 5.0,
    weight: float = 2.0,
    tokens: int = 2,
    multiplicity: int = 1,
    guard_limit: int = 3,
):
    """A small net with every element kind the structure key covers."""
    builder = NetBuilder("toy")
    builder.place("A", tokens=tokens).place("B").place("C").place("D", tokens=1)
    builder.exponential(
        "go",
        rate=rate,
        guard=lambda m: m["B"] < guard_limit,
        inputs={"A": multiplicity},
        outputs={"B": 1},
    )
    builder.immediate("left", weight=weight, inputs={"B": 1}, outputs={"C": 1})
    builder.immediate("right", weight=1.0, inputs={"B": 1}, outputs={"A": 1})
    builder.exponential("back", rate=0.5, inputs={"C": 1}, outputs={"A": 1})
    builder.deterministic("tick", delay=delay, inputs={"D": 1}, outputs={"D": 1})
    return builder.build()


class TestStructureKey:
    @pytest.mark.parametrize(
        "change", [{"rate": 3.0}, {"delay": 11.0}, {"rate": 0.1, "delay": 0.2}]
    )
    def test_rate_or_delay_change_hits(self, change):
        second = _toy(**change)
        assert_identical(_rerated(_toy(), second), _fresh(second))

    @pytest.mark.parametrize(
        "change",
        [
            {"guard_limit": 1},
            {"weight": 5.0},
            {"multiplicity": 2},
            {"tokens": 3},
        ],
        ids=["guard", "weight", "arc", "token"],
    )
    def test_structural_change_misses(self, change):
        with cache_override(enabled=True, directory=None) as cache:
            tangible_reachability(_toy())
            second = _toy(**change)
            graph = tangible_reachability(second)
            assert cache.structure_hits == 0
            assert cache.structure_misses == 2
        assert_identical(graph, _fresh(second))

    def test_smaller_max_states_raises_like_a_fresh_explore(self):
        net = build_net(PerceptionParameters.six_version_defaults())
        with pytest.raises(StateSpaceError) as fresh:
            explore(net, max_states=10)
        with cache_override(enabled=True, directory=None):
            tangible_reachability(net)
            with pytest.raises(StateSpaceError) as tiered:
                tangible_reachability(net, max_states=10)
        assert str(tiered.value) == str(fresh.value)


# -- the switch and the counters ---------------------------------------------


class TestSwitchAndCounters:
    def test_disabled_cache_never_consults_the_tier(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("structure tier consulted with the cache off")

        monkeypatch.setattr(SolverCache, "get_structure", refuse)
        monkeypatch.setattr(SolverCache, "put_structure", refuse)
        calls = []
        real_explore = statespace.explore

        def counting_explore(net, **kwargs):
            calls.append(net.name)
            return real_explore(net, **kwargs)

        monkeypatch.setattr(statespace, "explore", counting_explore)
        net = build_net(PerceptionParameters.four_version_defaults())
        with cache_override(enabled=False):
            tangible_reachability(net)
            tangible_reachability(net)
        assert len(calls) == 2

    def test_structure_counters_move_and_result_counters_do_not(self):
        six = PerceptionParameters.six_version_defaults()
        with registry_override() as registry:
            with cache_override(enabled=True, directory=None) as cache:
                tangible_reachability(build_net(six))
                tangible_reachability(build_net(dataclasses.replace(six, mttc=900.0)))
                assert (cache.structure_hits, cache.structure_misses) == (1, 1)
                assert cache.stats()["hits"] == 0
                assert cache.stats()["misses"] == 0
        assert registry.counter("engine.cache.structure.hits").value == 1.0
        assert registry.counter("engine.cache.structure.misses").value == 1.0
        assert registry.counter("engine.cache.hits").value == 0.0
        assert registry.counter("engine.cache.misses").value == 0.0

    def test_result_tier_bypass_still_rerates(self):
        """``use_cache=False`` skips result memoisation only."""
        from repro.dspn import solve_steady_state

        six = PerceptionParameters.six_version_defaults()
        with cache_override(enabled=True, directory=None) as cache:
            solve_steady_state(build_net(six), use_cache=False)
            solve_steady_state(
                build_net(dataclasses.replace(six, mttc=900.0)), use_cache=False
            )
            assert cache.structure_hits == 1
            assert cache.stats()["misses"] == 0
            assert len(cache) == 0


class TestThreadedTier:
    """Serve's thread executor shares one cache between solving threads."""

    def test_no_lost_updates_under_contention(self):
        cache = SolverCache()
        keys = [f"k{i}" for i in range(STRUCTURE_MAXSIZE + 8)]  # forces evictions
        n_threads, calls = 8, 2000
        errors: list[BaseException] = []

        def work(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(calls):
                    key = rng.choice(keys)
                    if cache.get_structure(key) is None:
                        cache.put_structure(key, key)
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)
                raise

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(seed,)) for seed in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.structure_hits + cache.structure_misses == n_threads * calls
        assert 0 < len(cache._structures) <= STRUCTURE_MAXSIZE

    def test_concurrent_rerates_equal_fresh(self):
        six = PerceptionParameters.six_version_defaults()
        nets = [
            build_net(dataclasses.replace(six, mttc=500.0 + 250.0 * index))
            for index in range(6)
        ]
        with cache_override(enabled=True, directory=None) as cache:
            with ThreadPoolExecutor(max_workers=6) as pool:
                graphs = list(pool.map(tangible_reachability, nets))
            assert cache.structure_hits + cache.structure_misses == len(nets)
        for net, graph in zip(nets, graphs):
            assert_identical(graph, _fresh(net))

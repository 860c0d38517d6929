"""The in-process workloads: ``sweep``, ``sim-batch`` and ``large-solve``.

Each class is built from ``(seed, part)`` (a run measures in several
fresh processes, and each part draws its own inputs from the seed) and
driven by :func:`perfbench.child.measure_in_process`: ``setup()`` (inputs
and models built), ``warm_up()`` (one operation on inputs the timed
window never sees, so first-call costs land in set-up and no cache the
window reads is pre-filled), then ``operation(i)`` until the window
closes, then ``check()``.  Problems found per operation collect in
``problems``; ``check()`` returns one entry per post-run check: None
when it passed, else the reason.

Layer entry points are called through their modules (``tasks.``,
``runtime.``, ``watch.``, ``dspn.``) so the traced run's wrappers see
the calls.  Modules only one workload needs are imported by it, so
they add nothing to the others' peak RSS.  Every workload runs
``jobs=1``: on two cores a 108-point sweep ran at 102–143 points/s
with ``jobs=2``, against 64–67 points/s with ``jobs=1``.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.engine import active_cache, configure_cache, tasks
from repro.perception.parameters import PerceptionParameters

from perfbench import checks, inputs
from perfbench.harness import now

#: Inputs generated per process; far more than one window consumes.
_INPUT_POOL = 20_000


def solver_cache_stats() -> "dict[str, int]":
    cache = active_cache()
    return cache.stats() if cache is not None else {"hits": 0, "misses": 0}


class Sweep:
    """``SweepPlan(expected_reliability)`` over the registry's figure grids.

    One operation regenerates the grids of Fig. 4(a)-(d), the phase
    diagram and the scaling study (195 evaluations) at one seeded
    operating point.  Why: this is the analytic pipeline figures are
    regenerated with, and the grids' own overlap (reward-only axes,
    shared base points) is the reuse a solver cache serves.
    """

    def __init__(self, seed: int, part: int) -> None:
        self.seed = seed
        self.part = part
        self.evaluated: list[tuple[tuple[Any, ...], float]] = []
        self.problems: list[str] = []

    def setup(self) -> None:
        # the default in-memory tier and no disk tier, as a fresh CLI run
        configure_cache(enabled=True, directory=None)
        self.operating_points = inputs.sweep_operating_points(
            self.seed, _INPUT_POOL, stream=f"sweep/{self.part}"
        )

    def _run(
        self, point: "dict[str, float]"
    ) -> "list[tuple[tuple[Any, ...], float]]":
        from repro.engine import SweepPlan
        from repro.nversion.conventions import OutputConvention
        from repro.nversion.reliability import GeneralizedReliability

        plan = SweepPlan(tasks.expected_reliability, label="perfbench:figures")
        for arguments, generalized in inputs.figure_points(point):
            parameters = PerceptionParameters(**arguments)
            if generalized:  # as repro.experiments.scaling adds its points
                reliability = GeneralizedReliability(
                    n_modules=parameters.n_modules,
                    threshold=parameters.voting_scheme.threshold,
                    p=parameters.p,
                    p_prime=parameters.p_prime,
                    alpha=parameters.alpha,
                )
                plan.add(parameters, OutputConvention.SAFE_SKIP, reliability)
            else:
                plan.add(parameters)
        return list(zip(plan.points, plan.run(jobs=1)))

    def warm_up(self) -> None:
        for point in inputs.sweep_operating_points(
            self.seed, 1, stream=f"sweep-warmup/{self.part}"
        ):
            self._run(point)
        configure_cache(enabled=True, directory=None)  # drop warm-up entries
        self.cache_before = solver_cache_stats()

    def operation(self, index: int) -> "tuple[int, int]":
        results = self._run(self.operating_points[index])
        self.evaluated.extend(results)
        problems = [checks.check_reliability(value) for _, value in results]
        self.problems.extend(problem for problem in problems if problem is not None)
        return len(results), sum(problem is not None for problem in problems)

    def shared_work_share(self, units: int) -> float:
        # Points whose net was already solved.  An evaluation makes at
        # most one cache hit: a reward-tier hit (same net and reward
        # seen before) or, after a reward-tier miss, a solver-tier hit.
        hits = solver_cache_stats()["hits"] - self.cache_before["hits"]
        return hits / units

    def check(self) -> "list[str | None]":
        from repro.engine import cache_override
        from repro.perception.evaluation import evaluate
        from repro.verify.certify import certify_steady_state

        problems = [
            checks.check_anchor(
                preset,
                tasks.expected_reliability(defaults()),
            )
            for preset, defaults in (
                ("four", PerceptionParameters.four_version_defaults),
                ("six", PerceptionParameters.six_version_defaults),
            )
        ]
        sample = inputs.subsample(
            self.seed, len(self.evaluated), 6, stream=f"sweep-check/{self.part}"
        )
        with cache_override(enabled=False):
            for index in sample:
                arguments, served = self.evaluated[index]
                label = f"sweep point {index}"
                problems.append(
                    checks.check_same_value(
                        label, served, tasks.expected_reliability(*arguments)
                    )
                )
                problems.append(
                    checks.check_certificate(
                        label,
                        certify_steady_state(
                            evaluate(arguments[0]).solution,
                            tolerance=checks.CERTIFY_TOLERANCE,
                        ),
                    )
                )
        return problems


#: Replica groups and rounds per batch operation (262,144 requests).
BATCH_GROUPS = 4096
BATCH_ROUNDS = 64


class SimBatch:
    """``simulate_batch`` plus the watch fold against the Eq. 1 target.

    Six-version defaults, stationary initial census, the observe-mode
    monitor and per-round totals.  Why: this is the production
    simulator path; it does no solver work inside the timed window.
    """

    def __init__(self, seed: int, part: int) -> None:
        self.seed = seed
        self.part = part
        self.census_s = 0.0
        self.problems: list[str] = []

    def setup(self) -> None:
        from repro.obs import watch
        from repro.perception.evaluation import evaluate
        from repro.simulation.batch import BatchConfig, BatchMonitorConfig

        parameters = PerceptionParameters.six_version_defaults()
        started = now()
        self.config = BatchConfig(
            parameters=parameters,
            groups=BATCH_GROUPS,
            rounds=BATCH_ROUNDS,
            request_period=1.0,
            chunk_size=BATCH_GROUPS,
            monitor=BatchMonitorConfig(mode="observe"),
            record_round_totals=True,
        ).with_stationary_init()
        self.census_s = now() - started
        target = evaluate(parameters).expected_reliability
        self.watch_config = watch.batch_watch_config(self.config, target=target)
        self.seeds = inputs.batch_seeds(
            self.seed, _INPUT_POOL, stream=f"sim-batch/{self.part}"
        )

    def _simulate(self, seed: int) -> "tuple[int, str | None]":
        from repro.obs import watch
        from repro.simulation.batch import runtime

        config = dataclasses.replace(self.config, seed=seed)
        report = runtime.simulate_batch(config)
        watcher = watch.watch_batch_report(config, report, self.watch_config)
        problem = checks.check_request_count(
            report.requests, BATCH_GROUPS * BATCH_ROUNDS
        ) or checks.check_no_alerts(watcher.log.events, watcher.windows_seen)
        return report.requests, problem

    def warm_up(self) -> None:
        for seed in inputs.batch_seeds(
            self.seed, 1, stream=f"sim-batch-warmup/{self.part}"
        ):
            self._simulate(seed)

    def operation(self, index: int) -> "tuple[int, int]":
        requests, problem = self._simulate(self.seeds[index])
        if problem is None:
            return requests, 0
        self.problems.append(f"batch {index}: {problem}")
        return requests, requests

    def shared_work_share(self, units: int) -> float:
        # Every batch simulates fresh seeded trajectories; the census and
        # the Eq. 1 target are set-up work, so nothing in the window can
        # reuse an earlier result.
        return 0.0

    def check(self) -> "list[str | None]":
        from repro.simulation.batch import runtime, simulate_reference

        (seed,) = inputs.batch_seeds(
            self.seed, 1, stream=f"sim-batch-reference/{self.part}"
        )
        small = dataclasses.replace(
            self.config,
            groups=16,
            chunk_size=8,
            seed=seed,
            record_outcomes=True,
            record_rejuvenations=True,
        )
        return [
            checks.check_reference_equal(
                runtime.simulate_batch(small), simulate_reference(small)
            )
        ]


def _healthy_modules(marking: Any) -> float:
    from repro.perception.statemap import module_counts

    return float(module_counts(marking).healthy)


def _fleet_net(shape: Any, n_modules: int, variant: "dict[str, float]") -> Any:
    from repro.perception.fleet import build_fleet_net

    return build_fleet_net(
        shape(
            perception=PerceptionParameters(
                n_modules=n_modules, f=2, r=2, rejuvenation=True, mttc=variant["mttc"]
            ),
            mean_maintenance_time=variant["mean_maintenance_time"],
            mean_dispatch_time=variant["mean_dispatch_time"],
        )
    )


class LargeSolve:
    """Certified sparse solves of nv20 fleet variants, plus nv15 transients.

    One operation is one nv20 variant (6076 states) solved with
    ``method="auto"`` (routed sparse) and ``verify=True``, followed by a
    short transient-reward grid on an nv15 variant.  Why: it is the only
    workload that runs ``markov.sparse``, uniformization, the sparse
    builder and ``verify.certify``, and state space at scale.
    """

    def __init__(self, seed: int, part: int) -> None:
        self.seed = seed
        self.part = part
        self.problems: list[str] = []

    def setup(self) -> None:
        self.nv20 = inputs.fleet_variants(
            self.seed, _INPUT_POOL, stream=f"large-nv20/{self.part}"
        )
        self.nv15 = inputs.fleet_variants(
            self.seed, _INPUT_POOL, stream=f"large-nv15/{self.part}"
        )

    def _solve(
        self, nv20: "dict[str, float]", nv15: "dict[str, float]"
    ) -> "str | None":
        # Every variant is a new generator, so the solver cache could only
        # hold results; bypassing it keeps peak RSS independent of how
        # many solves fit in the window.
        from repro import dspn
        from repro.perception.fleet import FleetParameters

        result = dspn.solve_steady_state(
            _fleet_net(FleetParameters.nv20_defaults, 20, nv20),
            method="auto",
            verify=True,
            use_cache=False,
        )
        transient = dspn.transient_rewards(
            _fleet_net(FleetParameters.nv15_defaults, 15, nv15),
            _healthy_modules,
            times=inputs.TRANSIENT_TIMES,
            method="sparse",
        )
        return checks.check_certificate("nv20 solve", result.certificate) or (
            checks.check_transient(transient.rewards, transient.distributions, 15.0)
        )

    def warm_up(self) -> None:
        (nv20,) = inputs.fleet_variants(
            self.seed, 1, stream=f"large-warmup-nv20/{self.part}"
        )
        (nv15,) = inputs.fleet_variants(
            self.seed, 1, stream=f"large-warmup-nv15/{self.part}"
        )
        self._solve(nv20, nv15)

    def operation(self, index: int) -> "tuple[int, int]":
        problem = self._solve(self.nv20[index], self.nv15[index])
        if problem is None:
            return 1, 0
        self.problems.append(f"variant {index}: {problem}")
        return 1, 1

    def shared_work_share(self, units: int) -> float:
        # Each variant changes generator rates, so no solve is reused.
        # (All variants share the nv20 structure, which re-rating could.)
        return 0.0

    def check(self) -> "list[str | None]":
        # certificates and transient sanity are checked per operation
        return []


WORKLOADS = {
    "sweep": Sweep,
    "sim-batch": SimBatch,
    "large-solve": LargeSolve,
}

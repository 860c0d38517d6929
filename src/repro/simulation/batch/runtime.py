"""Numpy-vectorized batch perception runtime.

Where :class:`~repro.simulation.runtime.PerceptionRuntime` walks one
replica group through a continuous-time event queue,
:func:`simulate_batch` advances *thousands of independent groups* on a
fixed round grid with array operations — millions of simulated
perception requests per second on one core, with the
:mod:`repro.monitor` estimator consuming the stream online.

Semantics: time is discretized into rounds of ``request_period``
seconds.  Round ``k`` covers ``(k·dt, (k+1)·dt]`` and executes four
phases at ``t = (k+1)·dt``, each consuming its declared slice of the
:class:`~repro.simulation.batch.schedule.SeedSchedule` block:

A. **rejuvenation completions** — every rejuvenating module finishes
   within the step with the exponential step probability of its batch's
   mean (:func:`~repro.simulation.batch.schedule.completion_probabilities`);
B. **fault channels** — Tc, Tf, Tr evaluated in order on the state the
   previous channel left, one shared channel per kind (``CHANNEL``
   semantics), victim uniform among eligible modules in id order;
C. **rejuvenation clock** — the built-in periodic clock (guard g1 at
   tick rounds, pending starts applied under guard g2 every round,
   victims by smallest selection key), or, when an active monitor mode
   drives the clock, budget accrual + policy commands at tick rounds;
D. **the request** — the dependent error model of
   ``PerceptionRuntime._module_outputs`` in array form, worst-case vote
   classification, monitor observation, and (threshold mode) between-
   tick policy firings.

The scalar reference interpreter
(:mod:`repro.simulation.batch.reference`) executes these same phases
element by element through the trusted scalar components over the same
schedule; ``tests/simulation/test_batch_differential.py`` proves the
two produce identical trajectories.

Groups are partitioned into fixed-size chunks.  The chunk is part of
the schedule's identity, so ``jobs`` only changes *where* a chunk runs
(inline or in a worker process), never what it computes; per-chunk
metric registries merge in chunk order, making ``jobs=1`` and
``jobs=4`` results identical.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.obs import counter as obs_counter
from repro.obs import span
from repro.obs.events import emit as emit_event
from repro.obs.metrics import active_registry, registry_override
from repro.perception.parameters import PerceptionParameters
from repro.simulation.batch.monitor import (
    BatchMonitor,
    BatchMonitorConfig,
    BatchMonitorReport,
    merge_monitor_reports,
)
from repro.simulation.batch.schedule import (
    CHANNEL_ORDER,
    STATE_COMPROMISED,
    STATE_FAILED,
    STATE_HEALTHY,
    STATE_REJUVENATING,
    CensusTable,
    SeedSchedule,
    channel_probabilities,
    completion_probabilities,
    sample_initial_states,
    stationary_census_table,
    wrong_labels,
)
from repro.simulation.batch.voter import (
    NO_OUTPUT,
    OUTCOME_CORRECT,
    OUTCOME_ERROR,
    OUTCOME_INCONCLUSIVE,
    classify_worst_case,
    tally_rounds,
)
from repro.simulation.campaigns import AttackCampaign
from repro.simulation.faults import FaultSemantics
from repro.simulation.voter import check_vote_capacity

#: Ground-truth transition kinds, in their per-round phase order.
TRANSITION_KINDS = (
    "rejuvenation-done",
    "compromise",
    "fail",
    "repair",
    "rejuvenation-start",
)


@dataclass(frozen=True)
class BatchConfig:
    """One batch simulation, fully specified and picklable.

    The trajectory is a pure function of this object: workers receive
    it verbatim and re-derive their chunk of the seed schedule from it.
    """

    parameters: PerceptionParameters
    groups: int
    rounds: int
    warmup_rounds: int = 0
    #: Seconds between perception requests (the round grid step).
    request_period: float = 0.1
    n_labels: int = 43
    seed: int = 0
    #: Groups per chunk — part of the schedule identity, NOT a tuning
    #: knob to vary per run: changing it changes the trajectory.
    chunk_size: int = 1024
    fault_semantics: FaultSemantics = FaultSemantics.CHANNEL
    campaign: AttackCampaign | None = None
    monitor: BatchMonitorConfig | None = None
    #: Initial census distribution (``stationary_census_table``); all
    #: modules start healthy when ``None``.
    initial_census: CensusTable | None = None
    #: Record the full ``(rounds, groups)`` outcome matrix.
    record_outcomes: bool = False
    #: Record every rejuvenation start as ``(round, group, module)``.
    record_rejuvenations: bool = False
    #: Record per-round fleet totals (errors, vote participation and
    #: deviation counts, flagged modules) — the window stream the
    #: ``repro.obs.watch`` detectors consume.  Per-chunk totals are
    #: int64 count vectors summed across chunks, so the merged stream
    #: is independent of ``jobs`` and chunk execution order.
    record_round_totals: bool = False

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise SimulationError(f"groups must be >= 1, got {self.groups}")
        if self.rounds < 1:
            raise SimulationError(f"rounds must be >= 1, got {self.rounds}")
        if not 0 <= self.warmup_rounds < self.rounds:
            raise SimulationError(
                f"warmup_rounds must lie in [0, rounds), got "
                f"{self.warmup_rounds} with rounds={self.rounds}"
            )
        if self.chunk_size < 1:
            raise SimulationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.n_labels < 2:
            raise SimulationError(
                f"n_labels must be >= 2, got {self.n_labels}"
            )
        if not self.request_period > 0:
            raise SimulationError(
                f"request_period must be positive, got {self.request_period}"
            )
        if self.seed < 0:
            raise SimulationError(f"seed must be non-negative, got {self.seed}")
        if self.fault_semantics is not FaultSemantics.CHANNEL:
            raise SimulationError(
                "the batch runtime implements the calibrated CHANNEL fault "
                f"semantics only, got {self.fault_semantics}; use "
                "PerceptionRuntime for PER_MODULE studies"
            )
        check_vote_capacity(
            self.parameters.n_modules, self.parameters.voting_scheme
        )
        if self.parameters.rejuvenation:
            ratio = self.parameters.rejuvenation_interval / self.request_period
            ticks = round(ratio)
            if ticks < 1 or abs(ratio - ticks) > 1e-9 * max(ratio, 1.0):
                raise SimulationError(
                    "the rejuvenation interval must be an integer multiple "
                    "of the request period so clock ticks land on the round "
                    f"grid; interval={self.parameters.rejuvenation_interval} "
                    f"/ request_period={self.request_period} = {ratio}"
                )
        if (
            self.monitor is not None
            and self.monitor.drives_clock
            and not self.parameters.rejuvenation
        ):
            raise SimulationError(
                f"monitor mode {self.monitor.mode!r} drives the rejuvenation "
                "clock but the configuration has rejuvenation disabled"
            )

    @property
    def ticks_every(self) -> int:
        """Rounds per rejuvenation-clock tick."""
        return round(self.parameters.rejuvenation_interval / self.request_period)

    @property
    def chunk_count(self) -> int:
        return -(-self.groups // self.chunk_size)

    def chunk_groups(self, chunk_index: int) -> int:
        start = chunk_index * self.chunk_size
        return min(self.chunk_size, self.groups - start)

    def with_stationary_init(self) -> "BatchConfig":
        """This config with the analytic stationary census as the
        initial distribution (solves the engine's model once)."""
        from dataclasses import replace

        return replace(
            self, initial_census=stationary_census_table(self.parameters)
        )


@dataclass(frozen=True)
class BatchReport:
    """Aggregated result of one batch run.

    Counts (``requests``/``correct``/``errors``/``inconclusive`` and the
    per-group arrays) cover the measured window — rounds at and after
    ``warmup_rounds``; the recorded ``outcomes`` matrix, the transition
    counts, and the throughput cover every simulated round.
    """

    groups: int
    rounds: int
    warmup_rounds: int
    requests: int
    correct: int
    errors: int
    inconclusive: int
    #: Simulated seconds per group in the measured window.
    duration: float
    seed: int
    jobs: int
    wall_seconds: float
    #: Simulated requests (all rounds × groups) per wall-clock second.
    throughput: float
    per_group_correct: np.ndarray
    per_group_errors: np.ndarray
    per_group_inconclusive: np.ndarray
    #: Per-group ground-truth transition counts over all rounds.
    transitions: "dict[str, np.ndarray]"
    outcomes: "np.ndarray | None"
    rejuvenations: "tuple[tuple[int, int, int], ...] | None"
    monitor: "BatchMonitorReport | None"
    #: Per-round fleet totals (``record_round_totals``), all rounds.
    round_errors: "np.ndarray | None" = None
    round_inconclusive: "np.ndarray | None" = None
    round_deviations: "np.ndarray | None" = None
    round_participants: "np.ndarray | None" = None
    round_flagged: "np.ndarray | None" = None

    @property
    def reliability_safe_skip(self) -> float:
        """E[R] under the safe-skip convention (inconclusive != error)."""
        return 1.0 - self.errors / self.requests if self.requests else 1.0

    @property
    def reliability_strict(self) -> float:
        """E[R] under the strict convention (only CORRECT counts)."""
        return self.correct / self.requests if self.requests else 1.0


@dataclass
class _ChunkResult:
    """Everything one chunk ships back to the parent (picklable)."""

    chunk_index: int
    per_group_correct: np.ndarray
    per_group_errors: np.ndarray
    per_group_inconclusive: np.ndarray
    transitions: "dict[str, np.ndarray]"
    outcomes: "np.ndarray | None"
    rejuvenations: "list[tuple[int, int, int]]"
    monitor: "BatchMonitorReport | None"
    metrics_snapshot: "dict | None"
    round_errors: "np.ndarray | None" = None
    round_inconclusive: "np.ndarray | None" = None
    round_deviations: "np.ndarray | None" = None
    round_participants: "np.ndarray | None" = None
    round_flagged: "np.ndarray | None" = None


def _simulate_chunk(config: BatchConfig, chunk_index: int) -> _ChunkResult:
    """Run one chunk of groups through every round (phases A-D)."""
    params = config.parameters
    n = params.n_modules
    g = config.chunk_groups(chunk_index)
    offset = chunk_index * config.chunk_size
    dt = config.request_period
    threshold = params.voting_scheme.threshold
    rejuvenation = params.rejuvenation
    ticks_every = config.ticks_every if rejuvenation else 0
    r = params.r

    schedule = SeedSchedule(config.seed, n)
    state = sample_initial_states(
        config.initial_census, schedule.init_draws(chunk_index, g), n
    )
    completion_q = np.zeros((g, n))
    completion_by_batch = completion_probabilities(params, dt)
    pending = np.zeros(g, dtype=np.int64)
    transitions = {
        kind: np.zeros(g, dtype=np.int64) for kind in TRANSITION_KINDS
    }
    measured_correct = np.zeros(g, dtype=np.int64)
    measured_errors = np.zeros(g, dtype=np.int64)
    measured_inconclusive = np.zeros(g, dtype=np.int64)
    outcomes = (
        np.zeros((config.rounds, g), dtype=np.int8)
        if config.record_outcomes
        else None
    )
    if config.record_round_totals:
        round_errors = np.zeros(config.rounds, dtype=np.int64)
        round_inconclusive = np.zeros(config.rounds, dtype=np.int64)
        round_deviations = np.zeros(config.rounds, dtype=np.int64)
        round_participants = np.zeros(config.rounds, dtype=np.int64)
        round_flagged = np.zeros(config.rounds, dtype=np.int64)
    else:
        round_errors = round_inconclusive = None
        round_deviations = round_participants = round_flagged = None
    rejuvenations: "list[tuple[int, int, int]]" = []

    monitor = (
        BatchMonitor(params, config.monitor, g)
        if config.monitor is not None
        else None
    )
    monitor_drives = monitor is not None and monitor.drives_clock

    def start_rejuvenation(start: np.ndarray, now: float, k: int) -> None:
        state[start] = STATE_REJUVENATING
        transitions["rejuvenation-start"] += start.sum(axis=1)
        # completion mean = batch size *after* all of this moment's
        # starts, matching the event loop's _schedule_completion
        batch = (state == STATE_REJUVENATING).sum(axis=1)
        completion_q[start] = np.broadcast_to(
            completion_by_batch[batch][:, None], (g, n)
        )[start]
        if monitor is not None:
            monitor.record_transition(now, "rejuvenation-start", start)
        if config.record_rejuvenations:
            for gi, mi in zip(*np.nonzero(start)):
                rejuvenations.append((k, offset + int(gi), int(mi)))

    for k in range(config.rounds):
        now = (k + 1) * dt
        draws = schedule.round_draws(chunk_index, k, g)

        # phase A: rejuvenation completions
        rejuvenating = state == STATE_REJUVENATING
        done = rejuvenating & (draws.u_done < completion_q)
        if done.any():
            state[done] = STATE_HEALTHY
            completion_q[done] = 0.0
            transitions["rejuvenation-done"] += done.sum(axis=1)
            if monitor is not None:
                monitor.record_transition(now, "rejuvenation-done", done)

        # phase B: fault channels (Tc, Tf, Tr in order)
        multiplier = (
            config.campaign.multiplier_at(k * dt)
            if config.campaign is not None
            else 1.0
        )
        probabilities = channel_probabilities(params, dt, multiplier)
        sources = (STATE_HEALTHY, STATE_COMPROMISED, STATE_FAILED)
        targets = (STATE_COMPROMISED, STATE_FAILED, STATE_HEALTHY)
        for channel, kind in enumerate(CHANNEL_ORDER):
            eligible = state == sources[channel]
            n_eligible = eligible.sum(axis=1)
            fires = (n_eligible > 0) & (
                draws.u_channel[:, channel] < probabilities[channel]
            )
            if not fires.any():
                continue
            pick = (draws.u_victim[:, channel] * n_eligible).astype(np.int64)
            victim = (
                fires[:, None]
                & eligible
                & (np.cumsum(eligible, axis=1) == (pick + 1)[:, None])
            )
            state[victim] = targets[channel]
            transitions[kind] += victim.sum(axis=1)
            if monitor is not None:
                monitor.record_transition(now, kind, victim)

        # phase C: the rejuvenation clock
        if rejuvenation:
            is_tick = (k + 1) % ticks_every == 0
            if monitor_drives:
                if is_tick:
                    commands = monitor.on_tick(now, state)
                    if commands is not None and commands.any():
                        start_rejuvenation(commands, now, k)
            else:
                if is_tick:
                    # guard g1: arm only when idle
                    arm = ((state == STATE_REJUVENATING).sum(axis=1) == 0) & (
                        pending == 0
                    )
                    pending[arm] = r
                if pending.any():
                    operational = (state == STATE_HEALTHY) | (
                        state == STATE_COMPROMISED
                    )
                    # guard g2: failed + rejuvenating modules count
                    # against the unavailability budget r
                    budget_used = n - operational.sum(axis=1)
                    start_n = np.minimum(
                        np.minimum(pending, np.maximum(0, r - budget_used)),
                        operational.sum(axis=1),
                    )
                    if start_n.any():
                        # victims: the start_n smallest selection keys
                        # among operational modules
                        keys = np.where(operational, draws.u_select, np.inf)
                        order = np.argsort(keys, axis=1, kind="stable")
                        rank = np.empty_like(order)
                        np.put_along_axis(
                            rank,
                            order,
                            np.broadcast_to(np.arange(n), (g, n)),
                            axis=1,
                        )
                        start = operational & (rank < start_n[:, None])
                        pending -= start_n
                        start_rejuvenation(start, now, k)

        # phase D: the perception request
        healthy = state == STATE_HEALTHY
        compromised = state == STATE_COMPROMISED
        n_healthy = healthy.sum(axis=1)
        error_event = (n_healthy > 0) & (draws.u_error < params.p)
        pick = (draws.u_leader * n_healthy).astype(np.int64)
        leader = (
            error_event[:, None]
            & healthy
            & (np.cumsum(healthy, axis=1) == (pick + 1)[:, None])
        )
        dragged = (
            error_event[:, None]
            & healthy
            & ~leader
            & (draws.u_alpha < params.alpha)
        )
        healthy_err = leader | dragged
        compromised_err = compromised & (draws.u_comp_err < params.p_prime)
        votes = n_healthy + compromised.sum(axis=1)
        wrong = healthy_err.sum(axis=1) + compromised_err.sum(axis=1)
        outcome = classify_worst_case(votes, votes - wrong, threshold)
        if outcomes is not None:
            outcomes[k] = outcome
        if round_errors is not None:
            round_errors[k] = int((outcome == OUTCOME_ERROR).sum())
            round_inconclusive[k] = int(
                (outcome == OUTCOME_INCONCLUSIVE).sum()
            )
        if k >= config.warmup_rounds:
            measured_correct += outcome == OUTCOME_CORRECT
            measured_errors += outcome == OUTCOME_ERROR
            measured_inconclusive += outcome == OUTCOME_INCONCLUSIVE

        if monitor is not None:
            truth = (draws.u_truth * config.n_labels).astype(np.int64)
            common = wrong_labels(truth, draws.u_common, config.n_labels)
            own_wrong = wrong_labels(
                truth[:, None], draws.u_comp_label, config.n_labels
            )
            labels = np.full((g, n), NO_OUTPUT, dtype=np.int64)
            labels = np.where(
                healthy,
                np.where(healthy_err, common[:, None], truth[:, None]),
                labels,
            )
            labels = np.where(
                compromised,
                np.where(compromised_err, own_wrong, truth[:, None]),
                labels,
            )
            tally = tally_rounds(
                labels, truth, config.n_labels, params.voting_scheme
            )
            participated = labels >= 0
            deviated = (
                participated
                & (tally.winner[:, None] >= 0)
                & (labels != tally.winner[:, None])
            )
            if round_deviations is not None:
                round_deviations[k] = int(deviated.sum())
                round_participants[k] = int(participated.sum())
            commands = monitor.observe_round(
                now, participated, deviated, outcome
            )
            if commands is not None and commands.any():
                start_rejuvenation(commands, now, k)
            if round_flagged is not None:
                round_flagged[k] = int(monitor.flagged.sum())

    return _ChunkResult(
        chunk_index=chunk_index,
        per_group_correct=measured_correct,
        per_group_errors=measured_errors,
        per_group_inconclusive=measured_inconclusive,
        transitions=transitions,
        outcomes=outcomes,
        rejuvenations=rejuvenations,
        monitor=monitor.report() if monitor is not None else None,
        metrics_snapshot=None,
        round_errors=round_errors,
        round_inconclusive=round_inconclusive,
        round_deviations=round_deviations,
        round_participants=round_participants,
        round_flagged=round_flagged,
    )


def _chunk_task(config: BatchConfig, chunk_index: int) -> _ChunkResult:
    """Worker entry: isolate the chunk's metrics so the parent can merge
    registries in chunk order (jobs-invariant totals)."""
    with registry_override() as registry:
        result = _simulate_chunk(config, chunk_index)
    result.metrics_snapshot = registry.snapshot()
    return result


def simulate_batch(config: BatchConfig, *, jobs: int = 1) -> BatchReport:
    """Run the batch simulation, inline or across worker processes.

    ``jobs`` changes wall-clock only: chunk boundaries, per-chunk
    schedules, and the chunk-ordered registry merge are identical at
    every worker count, so the report (and every ``monitor.*`` counter)
    is too.
    """
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    chunks = config.chunk_count
    total_requests = config.groups * config.rounds
    started = _time.perf_counter()
    emit_event(
        "sim.batch.start",
        groups=config.groups,
        rounds=config.rounds,
        chunks=chunks,
        jobs=jobs,
        seed=config.seed,
    )
    with span(
        "sim.batch.run",
        groups=config.groups,
        rounds=config.rounds,
        chunks=chunks,
        jobs=jobs,
    ):
        if jobs == 1 or chunks == 1:
            results = [_chunk_task(config, index) for index in range(chunks)]
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, chunks)) as pool:
                futures = [
                    pool.submit(_chunk_task, config, index)
                    for index in range(chunks)
                ]
                results = [future.result() for future in futures]
        registry = active_registry()
        for result in results:  # merge in chunk order: jobs-invariant
            if result.metrics_snapshot is not None:
                registry.merge(result.metrics_snapshot)
            emit_event(
                "sim.batch.chunk",
                chunk=result.chunk_index,
                groups=int(result.per_group_correct.shape[0]),
                errors=int(result.per_group_errors.sum()),
            )
    wall = _time.perf_counter() - started

    per_group_correct = np.concatenate([r.per_group_correct for r in results])
    per_group_errors = np.concatenate([r.per_group_errors for r in results])
    per_group_inconclusive = np.concatenate(
        [r.per_group_inconclusive for r in results]
    )
    transitions = {
        kind: np.concatenate([r.transitions[kind] for r in results])
        for kind in TRANSITION_KINDS
    }
    outcomes = (
        np.concatenate([r.outcomes for r in results], axis=1)
        if config.record_outcomes
        else None
    )
    rejuvenation_list: "list[tuple[int, int, int]]" = []
    for result in results:
        rejuvenation_list.extend(result.rejuvenations)
    rejuvenation_list.sort()
    monitor_report = (
        merge_monitor_reports([r.monitor for r in results])
        if config.monitor is not None
        else None
    )
    def _round_sum(name: str) -> "np.ndarray | None":
        # int64 counts: addition is exact and commutative, so the
        # per-round stream is identical at every jobs value.
        if not config.record_round_totals:
            return None
        return np.sum([getattr(r, name) for r in results], axis=0)

    measured_rounds = config.rounds - config.warmup_rounds
    requests = measured_rounds * config.groups
    report = BatchReport(
        groups=config.groups,
        rounds=config.rounds,
        warmup_rounds=config.warmup_rounds,
        requests=requests,
        correct=int(per_group_correct.sum()),
        errors=int(per_group_errors.sum()),
        inconclusive=int(per_group_inconclusive.sum()),
        duration=measured_rounds * config.request_period,
        seed=config.seed,
        jobs=jobs,
        wall_seconds=wall,
        throughput=total_requests / wall if wall > 0 else float("inf"),
        per_group_correct=per_group_correct,
        per_group_errors=per_group_errors,
        per_group_inconclusive=per_group_inconclusive,
        transitions=transitions,
        outcomes=outcomes,
        rejuvenations=(
            tuple(rejuvenation_list) if config.record_rejuvenations else None
        ),
        monitor=monitor_report,
        round_errors=_round_sum("round_errors"),
        round_inconclusive=_round_sum("round_inconclusive"),
        round_deviations=_round_sum("round_deviations"),
        round_participants=_round_sum("round_participants"),
        round_flagged=_round_sum("round_flagged"),
    )
    obs_counter("sim.batch.requests").inc(total_requests)
    obs_counter("sim.batch.errors").inc(report.errors)
    emit_event(
        "sim.batch.done",
        requests=requests,
        errors=report.errors,
        reliability=report.reliability_safe_skip,
        throughput=report.throughput,
        wall_seconds=wall,
    )
    return report


def sim_batch_config() -> BatchConfig:
    """The 1M-request firehose the batch runtime is held to.

    4096 six-version groups x 256 rounds = 1,048,576 voted requests: the
    run behind the >= 1e6 requests/s floor test and the watch-overhead
    budget script (``benchmarks/bench_watch_overhead.py``).
    """
    return BatchConfig(
        parameters=PerceptionParameters.six_version_defaults(),
        groups=4096,
        rounds=256,
        request_period=1.0,
        seed=7,
        chunk_size=4096,
    )

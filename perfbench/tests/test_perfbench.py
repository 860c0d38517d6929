"""Tests for the benchmark's own code: inputs, statistics, names, checks.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from perfbench import checks, harness, inputs, layers

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

GENERATORS = {
    "sweep": lambda seed: inputs.sweep_operating_points(seed, 50),
    "serve-hot": inputs.serve_hot_set,
    "serve": lambda seed: inputs.serve_requests(seed, 500),
    "sim-batch": lambda seed: inputs.batch_seeds(seed, 50),
    "large-solve": lambda seed: inputs.fleet_variants(seed, 50, stream="large-nv20"),
}


def _bytes(value):
    return json.dumps(value, sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_identical_inputs(name):
    generate = GENERATORS[name]
    assert _bytes(generate(7)) == _bytes(generate(7))
    assert _bytes(generate(7)) != _bytes(generate(8))


def test_inputs_are_prefix_stable():
    points = inputs.sweep_operating_points(3, 40)
    assert inputs.sweep_operating_points(3, 10) == points[:10]
    assert inputs.serve_requests(3, 100) == inputs.serve_requests(3, 900)[:100]


def test_warm_up_inputs_differ_from_timed_inputs():
    timed = inputs.sweep_operating_points(3, 1000)
    (warm,) = inputs.sweep_operating_points(3, 1, stream="sweep-warmup")
    assert warm not in timed


def test_sweep_grids_are_the_registry_grids():
    import inspect

    from repro.experiments import fig4, phase, scaling

    assert inputs.FIG4_MTTC == fig4.GRID_MTTC
    assert inputs.FIG4_ALPHA == fig4.GRID_ALPHA
    assert inputs.FIG4_P == fig4.GRID_P
    assert inputs.FIG4_P_PRIME == fig4.GRID_P_PRIME
    assert inputs.PHASE_MTTC == phase.GRID_MTTC
    assert inputs.PHASE_P_PRIME == phase.GRID_P_PRIME
    max_modules = inspect.signature(scaling.run_scaling).parameters["max_modules"]
    assert inputs.SCALING_MODULES == tuple(range(4, max_modules.default + 1))


def test_figure_points_cover_every_grid_at_the_operating_point():
    (point,) = inputs.sweep_operating_points(3, 1)
    points = inputs.figure_points(point)
    # fig4 a-d and the phase diagram on both configurations, then scaling
    assert len(points) == 2 * (14 + 10 + 11 + 8 + 7 * 7) + 6 + 4 + 1
    assert sum(generalized for _, generalized in points) == 11
    for arguments, _ in points:
        assert arguments["mttf"] == point["mttf"]
        assert arguments["rejuvenation_interval"] == point["rejuvenation_interval"]
    mttcs = {arguments["mttc"] for arguments, _ in points}
    assert inputs.DEFAULT_MTTC * point["mttc_scale"] in mttcs
    assert len(mttcs) == len(set(inputs.FIG4_MTTC) | set(inputs.PHASE_MTTC))


def test_serve_requests_mix_hot_and_unique_fresh_specs():
    requests = inputs.serve_requests(5, 20_000)
    fresh = [_bytes(spec) for kind, spec in requests if kind == "fresh"]
    share = len(fresh) / len(requests)
    assert abs(share - inputs.SERVE_MISS_SHARE) < 0.01
    assert len(set(fresh)) == len(fresh)
    assert all("method" not in spec for kind, spec in requests if kind == "fresh")


def test_percentile_needs_ten_samples_beyond():
    assert harness.percentile(list(range(100)), 90) == 89
    assert harness.percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        harness.percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_names_use_the_allowed_alphabet():
    spec = _benchmark_json()
    names = [workload["name"] for workload in spec["workloads"]]
    names += [metric["name"] for metric in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert harness.NAME_PATTERN.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_matches_the_code():
    from perfbench import run

    spec = _benchmark_json()
    assert [workload["name"] for workload in spec["workloads"]] == list(run.WORKLOADS)
    units = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert units == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert all(0 < metric["bound"] <= 0.25 for metric in spec["end_to_end"])
    setup = next(metric for metric in spec["end_to_end"] if metric["name"] == "setup_s")
    assert setup["bound"] == max(metric["bound"] for metric in spec["end_to_end"])


def test_steal_share():
    assert harness.steal_share((100, 10), (190, 20)) == 0.1
    assert harness.steal_share((100, 10), (100, 10)) == 0.0
    busy, stolen = harness.cpu_ticks()
    assert busy > 0 and stolen >= 0


def test_threads_pinned_refuses_other_settings():
    env = {name: "1" for name in harness.THREAD_VARIABLES}
    good = {"env": env, "blas_threads": {"lib.so": 1}}
    assert harness.threads_pinned(good)
    assert not harness.threads_pinned({**good, "env": {**env, "OMP_NUM_THREADS": "2"}})
    assert not harness.threads_pinned(
        {**good, "env": {**env, "OPENBLAS_NUM_THREADS": None}}
    )
    assert not harness.threads_pinned({**good, "blas_threads": {"lib.so": 2}})


def test_recorder_attributes_self_time(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(harness, "now", lambda: float(next(ticks)))
    layer = types.SimpleNamespace()
    layer.inner = lambda: "inner"

    def outer():
        layer.inner()
        return layer.inner()

    layer.outer = outer
    recorder = harness.Recorder()
    recorder.wrap(layer, "inner", "inner")
    recorder.wrap(layer, "outer", "outer")
    assert layer.outer() == "inner"
    recorder.restore()
    assert layer.outer is outer
    # outer spans ticks 0..5, each inner call one tick of it
    assert recorder.self_times() == {"outer": 3.0, "inner": 2.0}
    assert recorder.counts["inner.calls"] == 2


def test_layer_entry_points_exist():
    recorder = harness.Recorder()
    layers.install(recorder)
    try:
        assert len(recorder._patches) == len(layers.ENTRY_POINTS)
    finally:
        recorder.restore()


# ----------------------------------------------------------------------
# every correctness check fails on an injected wrong value
# ----------------------------------------------------------------------
def test_anchor_check_fails_on_perturbed_reliability():
    assert checks.check_anchor("four", 0.8223486840005185) is None
    assert checks.check_anchor("six", 0.9430076550030814) is None
    assert checks.check_anchor("six", 0.9430076550030814 + 1e-3) is not None
    assert checks.check_anchor("four", float("nan")) is not None


def test_same_value_check_fails_on_perturbed_reliability():
    assert checks.check_same_value("x", 0.9, 0.9) is None
    assert checks.check_same_value("x", 0.9 + 1e-9, 0.9) is not None


def _served(value=0.9430076550030814):
    result = {"expected_reliability": value, "n_modules": 6}
    return {"cache": "hit", "result": result, "digest": checks.result_digest(result)}


def test_serve_response_check():
    assert checks.check_serve_response(200, _served()) is None
    assert checks.check_serve_response(503, _served()) is not None
    assert checks.check_serve_response(200, None) is not None
    tampered = _served()
    tampered["result"]["expected_reliability"] += 1e-6  # digest now stale
    assert checks.check_serve_response(200, tampered) is not None
    assert checks.check_serve_response(200, _served(1.5)) is not None


def test_batch_checks_fail_on_dropped_request_and_alerts():
    assert checks.check_request_count(262144, 262144) is None
    assert checks.check_request_count(262143, 262144) is not None
    assert checks.check_no_alerts([], 8) is None
    assert checks.check_no_alerts([{"kind": "drift"}], 8) is not None
    assert checks.check_no_alerts([], 0) is not None


def test_reference_check_fails_on_a_flipped_outcome():
    from repro.perception.parameters import PerceptionParameters
    from repro.simulation.batch import (
        BatchConfig,
        BatchMonitorConfig,
        simulate_batch,
        simulate_reference,
    )

    config = BatchConfig(
        parameters=PerceptionParameters.six_version_defaults(),
        groups=4,
        rounds=16,
        request_period=1.0,
        chunk_size=4,
        monitor=BatchMonitorConfig(mode="observe"),
        record_outcomes=True,
        record_rejuvenations=True,
    ).with_stationary_init()
    batch, reference = simulate_batch(config), simulate_reference(config)
    assert checks.check_reference_equal(batch, reference) is None
    outcomes = reference.outcomes.copy()
    outcomes[3, 1] = (outcomes[3, 1] + 1) % 3
    flipped = dataclasses.replace(reference, outcomes=outcomes)
    assert "outcomes" in checks.check_reference_equal(batch, flipped)


def test_certificate_check_fails_on_a_corrupted_solution():
    from repro.dspn import solve_steady_state
    from repro.perception.parameters import PerceptionParameters
    from repro.perception.rejuvenation import build_rejuvenation_net
    from repro.verify.certify import certify_steady_state

    result = solve_steady_state(
        build_rejuvenation_net(PerceptionParameters.six_version_defaults()),
        use_cache=False,
        verify=True,
    )
    assert checks.check_certificate("six", result.certificate) is None
    corrupted = dataclasses.replace(result, pi=result.pi * 1.01)
    certificate = certify_steady_state(corrupted, tolerance=checks.CERTIFY_TOLERANCE)
    assert checks.check_certificate("six", certificate) is not None
    assert checks.check_certificate("six", None) is not None


def test_serve_check_flags_a_wrong_later_hot_answer():
    from repro.engine.tasks import expected_reliability

    from perfbench.serve_mixed import ServeMixed, _library_parameters

    workload = ServeMixed(seed=3, part=0)
    zero, two = (
        expected_reliability(_library_parameters(workload.hot[index]))
        for index in (0, 2)
    )
    assert zero != two
    requests = [("hot", 0), ("hot", 2), ("hot", 0)]
    right = {0: ("hot", zero), 1: ("hot", two), 2: ("hot", zero)}
    assert workload.check_library(requests, right) == [None, None, None]
    # the first answer for spec 0 is right, the later one is spec 2's value
    wrong = {**right, 2: ("hot", two)}
    assert workload.check_library(requests, wrong)[2] is not None


def test_record_counts_window_and_post_run_failures():
    from perfbench.child import build_record

    measurement = {
        "setup_s": 1.0,
        "import_s": 0.3,
        "threads": [],
        "peak_rss_mb": 80.0,
        "shared_work_share": 0.5,
        "window": {"units": 10, "failed": 1, "elapsed_s": 2.0, "per_layer": {}},
        "post_run": [None, "certificate failed"],
        "problems": ["operation 3 raised"],
    }
    record = build_record(measurement, trace=True)
    assert record["failed"] == 2
    assert record["checks"] == 2
    assert record["problems"] == ["operation 3 raised", "certificate failed"]
    assert record["per_layer"]["cli.import_s"] == 0.3
    assert "per_layer" not in build_record(measurement, trace=False)


def test_transient_check():
    rows = np.array([[0.25, 0.75], [0.5, 0.5]])
    assert checks.check_transient([14.0, 13.5], rows, 15.0) is None
    assert checks.check_transient([15.5], rows, 15.0) is not None
    assert checks.check_transient([14.0], rows * 1.001, 15.0) is not None


def test_run_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep"]
        + ["--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout

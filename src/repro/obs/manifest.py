"""Run provenance: what produced a trace or benchmark number.

A :class:`RunManifest` pins the code (git sha), the environment (python,
numpy, platform), the workload (experiment id, parameters, seed, jobs),
and the execution policy (solver-cache settings, clock kind) of a run.
``repro trace`` attaches one to every trace and the overhead-budget
scripts under ``benchmarks/`` print one with their measurement, so a
number can always be traced back to the configuration that produced it.

Everything in the manifest is either stable for a given checkout or an
explicit input — no wall-clock timestamps — so manifests (and the JSON
artifacts embedding them) are byte-reproducible.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


@dataclass(frozen=True)
class RunManifest:
    """Provenance record attached to traces and benchmark artifacts."""

    experiment: str | None
    parameters: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    jobs: int | None = None
    git_sha: str | None = None
    python_version: str = ""
    numpy_version: str = ""
    platform: str = ""
    cache_policy: dict[str, Any] = field(default_factory=dict)
    clock: str = "monotonic"
    solver_routing: dict[str, Any] = field(default_factory=dict)
    #: Error-rate certificates of any armed watch detectors
    #: (:meth:`repro.obs.watch.Watcher.certificates`) — empty when the
    #: run had no watcher.
    detectors: tuple = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "parameters": dict(self.parameters),
            "seed": self.seed,
            "jobs": self.jobs,
            "git_sha": self.git_sha,
            "python_version": self.python_version,
            "numpy_version": self.numpy_version,
            "platform": self.platform,
            "cache_policy": dict(self.cache_policy),
            "clock": self.clock,
            "solver_routing": dict(self.solver_routing),
            "detectors": [dict(certificate) for certificate in self.detectors],
        }


def _git_sha() -> str | None:
    """The HEAD sha of the repository containing this file, if any."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    sha = completed.stdout.strip()
    return sha or None


def collect_manifest(
    *,
    experiment: str | None = None,
    parameters: dict[str, Any] | None = None,
    seed: int | None = None,
    jobs: int | None = None,
    detectors: "tuple[dict[str, Any], ...] | list[dict[str, Any]]" = (),
) -> RunManifest:
    """Build a manifest for the current process and the given workload."""
    import numpy

    from repro.dspn.steady_state import routing_decisions, routing_policy
    from repro.engine.cache import cache_settings
    from repro.obs.clock import clock_settings

    # The auto-routing policy plus every route it resolved in this
    # process: deterministic for a given workload sequence, so manifests
    # stay byte-reproducible while recording which solver produced the
    # numbers (docs/SOLVERS.md).
    solver_routing = dict(routing_policy())
    solver_routing["decisions"] = routing_decisions()

    return RunManifest(
        experiment=experiment,
        parameters=dict(parameters or {}),
        seed=seed,
        jobs=jobs,
        git_sha=_git_sha(),
        python_version=sys.version.split()[0],
        numpy_version=numpy.__version__,
        platform=platform.platform(),
        cache_policy=cache_settings(),
        clock=clock_settings()["kind"],
        solver_routing=solver_routing,
        detectors=tuple(detectors),
    )

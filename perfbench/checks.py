"""Correctness checks on workload outputs.

Each check returns ``None`` when the output is right and a one-line
reason when it is not; the workloads count every reason into
``failed`` and the command exits non-zero on any of them.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

#: Eq. 1 at the Table II defaults, as the paper prints it (4 decimals).
PAPER_ANCHORS = {"four": 0.8223, "six": 0.9430}

#: Residual bound for the post-run certificates of sweep points.
CERTIFY_TOLERANCE = 1e-9

#: Two evaluations of the same configuration by the same code agree to
#: this absolute bound (the contraction order is fixed; the slack only
#: absorbs summation-order differences between solver routes).
SAME_VALUE_TOLERANCE = 1e-12


def check_reliability(value: Any) -> "str | None":
    if not isinstance(value, float) or not math.isfinite(value):
        return f"E[R] {value!r} is not a finite float"
    if not 0.0 <= value <= 1.0:
        return f"E[R] {value!r} lies outside [0, 1]"
    return None


def check_anchor(preset: str, value: float) -> "str | None":
    """The paper's headline E[R] at Table II defaults, to 4 decimals."""
    problem = check_reliability(value)
    if problem is not None:
        return problem
    expected = PAPER_ANCHORS[preset]
    if round(value, 4) != expected:
        return f"{preset}-version E[R] {value:.6f} does not round to {expected}"
    return None


def check_same_value(label: str, served: float, reference: float) -> "str | None":
    if not abs(served - reference) <= SAME_VALUE_TOLERANCE:
        return f"{label}: {served!r} differs from the library value {reference!r}"
    return None


def check_certificate(label: str, certificate: Any) -> "str | None":
    if certificate is None:
        return f"{label}: no certificate attached"
    if not certificate.passed:
        failures = "; ".join(check.render() for check in certificate.failures())
        return f"{label}: certificate failed: {failures}"
    return None


def result_digest(result: Any) -> str:
    """SHA-256 over the canonical JSON of a served result."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def check_serve_response(status: int, payload: Any) -> "str | None":
    """HTTP 200, a result, and a digest that matches the result."""
    if status != 200:
        return f"status {status}"
    if not isinstance(payload, dict) or "result" not in payload:
        return "response has no result"
    if payload.get("digest") != result_digest(payload["result"]):
        return "response digest does not match its result"
    return check_reliability(payload["result"].get("expected_reliability"))


def check_request_count(requests: int, expected: int) -> "str | None":
    if requests != expected:
        return f"simulated {requests} requests, expected {expected}"
    return None


def check_no_alerts(events: "list[Any]", windows: int) -> "str | None":
    if windows == 0:
        return "the watch fold saw no windows"
    if events:
        return f"{len(events)} alert events on a clean stream"
    return None


#: BatchReport fields the batch runtime and the scalar reference
#: interpreter must agree on bit for bit.
REFERENCE_FIELDS = (
    "requests",
    "correct",
    "errors",
    "inconclusive",
    "outcomes",
    "per_group_correct",
    "per_group_errors",
    "per_group_inconclusive",
    "rejuvenations",
)


def check_reference_equal(batch: Any, reference: Any) -> "str | None":
    """Bitwise equality of a batch report and its reference replay."""
    import numpy as np

    def equal(left: Any, right: Any) -> bool:
        if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
            return np.array_equal(left, right)
        return left == right

    mismatched = [
        name
        for name in REFERENCE_FIELDS
        if not equal(getattr(batch, name), getattr(reference, name))
    ]
    if set(batch.transitions) != set(reference.transitions) or any(
        not np.array_equal(batch.transitions[kind], reference.transitions[kind])
        for kind in batch.transitions
    ):
        mismatched.append("transitions")
    if batch.monitor is not None or reference.monitor is not None:
        if batch.monitor is None or reference.monitor is None:
            mismatched.append("monitor")
        elif not np.array_equal(
            batch.monitor.posterior, reference.monitor.posterior, equal_nan=True
        ):
            mismatched.append("monitor.posterior")
    if mismatched:
        return "batch and reference differ in " + ", ".join(mismatched)
    return None


def check_transient(
    rewards: "list[float]", distributions: Any, ceiling: float
) -> "str | None":
    """Transient rewards lie in [0, ceiling] and every distribution sums to 1."""
    for reward in rewards:
        if not (math.isfinite(reward) and 0.0 <= reward <= ceiling):
            return f"transient reward {reward!r} outside [0, {ceiling}]"
    for row in distributions:
        if abs(float(row.sum()) - 1.0) > CERTIFY_TOLERANCE:
            return f"transient distribution sums to {float(row.sum())!r}"
    return None

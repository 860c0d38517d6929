"""The vectorised sparse generator builds exactly the matrix of the
per-edge loop it replaced: same COO triplets in the same order, so the
CSR duplicate sums — and every stored float — are unchanged."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.dspn.sparse_builder import sparse_generator
from repro.engine import cache_override
from repro.experiments.registry import EXPERIMENT_IDS
from repro.perception.fleet import FleetParameters, build_fleet_net
from repro.statespace import tangible_reachability
from repro.verify.targets import experiment_targets


def loop_generator(graph) -> sp.csr_array:
    """The pure-Python triple loop the vectorised builder replaced."""
    n = graph.n_states
    rows: list[int] = []
    cols: list[int] = []
    rates: list[float] = []
    diagonal = np.zeros(n)
    for source in range(n):
        for edge in graph.exponential_edges[source]:
            for target, probability in edge.targets:
                if target == source:
                    continue
                flow = edge.rate * probability
                rows.append(source)
                cols.append(target)
                rates.append(flow)
                diagonal[source] -= flow
    nonzero_diagonal = np.flatnonzero(diagonal)
    rows.extend(nonzero_diagonal.tolist())
    cols.extend(nonzero_diagonal.tolist())
    rates.extend(diagonal[nonzero_diagonal].tolist())
    matrix = sp.coo_array(
        (
            np.asarray(rates),
            (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)),
        ),
        shape=(n, n),
    )
    return sp.csr_array(matrix)


def _registry_graphs():
    """Every distinct exponential-only net the experiment registry solves."""
    seen = set()
    with cache_override(enabled=False):
        for experiment_id in EXPERIMENT_IDS:
            for target in experiment_targets(experiment_id):
                if target.name in seen:
                    continue
                seen.add(target.name)
                graph = tangible_reachability(
                    target.build(), max_states=target.max_states
                )
                if not graph.has_deterministic():
                    yield target.name, graph


def _assert_same_csr(graph) -> None:
    built, reference = sparse_generator(graph), loop_generator(graph)
    for field in ("data", "indices", "indptr"):
        got, want = getattr(built, field), getattr(reference, field)
        assert got.dtype == want.dtype, field
        np.testing.assert_array_equal(got, want, err_msg=field)


def test_every_registry_net():
    graphs = list(_registry_graphs())
    assert graphs, "the registry solves exponential-only nets"
    for _name, graph in graphs:
        _assert_same_csr(graph)


@pytest.mark.parametrize(
    "parameters",
    [FleetParameters.nv15_defaults(), FleetParameters.nv20_defaults()],
    ids=["nv15", "nv20"],
)
def test_fleet_nets(parameters):
    with cache_override(enabled=False):
        graph = tangible_reachability(build_fleet_net(parameters))
    _assert_same_csr(graph)

"""Build a CSR generator from a tangible reachability graph.

The sparse twin of :mod:`repro.dspn.ctmc_builder`: identical edge
semantics — vanishing-resolved exponential edges contribute
``rate * probability`` per target, invisible self-loops are dropped,
the diagonal compensates row sums — but the matrix is assembled in COO
triplets and finalized as CSR without ever allocating the dense n×n
array, so fleet-scale nets (tens of thousands of markings) stay within
memory proportional to the edge count.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter

import numpy as np
import scipy.sparse as sp

from repro.errors import UnsupportedModelError
from repro.obs import span
from repro.statespace.graph import TangibleGraph


def sparse_generator(graph: TangibleGraph) -> sp.csr_array:
    """CSR generator of a net with no deterministic behaviour.

    Duplicate (source, target) triplets are summed by the COO→CSR
    conversion, mirroring the dense builder's ``+=`` accumulation, so
    ``sparse_generator(g).toarray()`` matches ``build_ctmc(g).generator``
    to floating-point rounding (the differential suite pins this).

    Raises
    ------
    UnsupportedModelError
        If any tangible marking enables a deterministic transition (use
        the MRGP builder instead).
    """
    if graph.has_deterministic():
        raise UnsupportedModelError(
            "the net enables deterministic transitions; build an MRGP instead"
        )
    with span("dspn.sparse_builder", states=graph.n_states):
        n = graph.n_states
        # Flatten edges and their target distributions with C-level
        # iteration, one triplet per (edge, target) in edge order.
        edges = list(chain.from_iterable(graph.exponential_edges))
        targets = list(map(attrgetter("targets"), edges))
        per_state = np.fromiter(map(len, graph.exponential_edges), np.int64, count=n)
        fan_out = np.fromiter(map(len, targets), np.int64, count=len(edges))
        rates = np.fromiter(map(attrgetter("rate"), edges), float, count=len(edges))
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(targets)), float
        ).reshape(-1, 2)
        rows = np.repeat(np.repeat(np.arange(n, dtype=np.int64), per_state), fan_out)
        cols = pairs[:, 0].astype(np.int64)
        flows = np.repeat(rates, fan_out) * pairs[:, 1]
        keep = rows != cols  # invisible self-loops do not affect the CTMC
        rows, cols, flows = rows[keep], cols[keep], flows[keep]
        # unbuffered, in triplet order: the same float sums as ``-=`` per edge
        diagonal = np.zeros(n)
        np.subtract.at(diagonal, rows, flows)
        nonzero_diagonal = np.flatnonzero(diagonal)
        matrix = sp.coo_array(
            (
                np.concatenate([flows, diagonal[nonzero_diagonal]]),
                (
                    np.concatenate([rows, nonzero_diagonal]),
                    np.concatenate([cols, nonzero_diagonal]),
                ),
            ),
            shape=(n, n),
        )
        return sp.csr_array(matrix)

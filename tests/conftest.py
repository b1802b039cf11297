"""Shared test helpers."""

from itertools import product

import numpy as np
import pytest


def dense_matrix(op) -> np.ndarray:
    """The out_dim x in_dim matrix of a weighted label map, entry by entry
    from its definition |x> -> weights[x] |targets[x]>."""
    m = np.zeros((op.out_dim, op.in_dim), dtype=complex)
    for x, (w, t) in enumerate(zip(op.weights, op.targets)):
        m[t, x] += w
    return m


@pytest.fixture
def dense():
    return dense_matrix


def block_counts_oracle(n, m) -> list:
    """Count vectors of m components summing to n, filtered from the full
    product, which is lexicographic by construction."""
    return [c for c in product(range(n + 1), repeat=m) if sum(c) == n]


def terms(state) -> dict:
    """``label tuple -> amplitude`` for each term of ``state``, in row order."""
    return dict(zip(map(tuple, state.labels.tolist()), state.amps.tolist()))

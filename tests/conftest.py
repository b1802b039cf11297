"""Shared test helpers, and plain oracles for what the package computes
another way."""

import json
import math
from itertools import product

import numpy as np
import pytest

from eprghz.blocks import block_labels, decompose, log2_multinomial
from eprghz.canonical import level_epr, level_ghz
from eprghz.extraction import _verify_blocks, block_outcomes
from eprghz.hilbert import NORM_TOL, PureState, relabel, tensor
from eprghz.locc import (ImpossibleOutcomeError, Transcript, _draw,
                         apply_element, projective_probabilities, sample,
                         uniform_draws)
from eprghz.preparation import (ghz_weighting_povm, row_shorten_povm,
                                target_window)


def dense_matrix(op, dim=None) -> np.ndarray:
    """The dense matrix of one local operation on one party, entry by entry
    from its definition: a LocalOperator's diagonal |x> -> weights[x] |x>,
    or the permutation |old[i]> -> |new[i]> (other labels stay) of a
    ``permutation_operator`` tuple ``(party, old, new)`` on ``dim``
    labels."""
    if isinstance(op, tuple):
        _, old, new = op
        targets = list(range(dim))
        for x, y in zip(old.tolist(), new.tolist()):
            targets[x] = y
        m = np.zeros((dim, dim), dtype=complex)
        for x, y in enumerate(targets):
            m[y, x] += 1.0
        return m
    m = np.zeros((len(op.weights),) * 2, dtype=complex)
    for x, w in enumerate(op.weights):
        m[x, x] = w
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


def psi_prime(c0, c1, c2, c3) -> PureState:
    """The four-component state on dims (6, 6, 6), written out term by
    term: c0 |000>; c1 pairs B with C (A parked); c2 pairs A with C (B
    parked); c3 pairs A with B (C parked), each on its own label range.
    Amplitudes are c / sqrt(2), which differs by an ulp from
    ``psi_general``'s c * (1 / sqrt(2)) for some c: compare with a
    tolerance."""
    r = math.sqrt(2.0)
    labels = [(0, 0, 0), (1, 1, 1), (1, 2, 2), (2, 3, 3), (3, 3, 4),
              (4, 4, 5), (5, 5, 5)]
    amps = [c0, c1 / r, c1 / r, c2 / r, c2 / r, c3 / r, c3 / r]
    return PureState((6, 6, 6), labels, amps)


def checked_decompose(spec, n, state):
    """``decompose(spec, n)``, once the package's explicit-state block check
    (``extraction._verify_blocks``, as ``run_extraction(...,
    verify_blocks=True)`` runs it) has passed on ``state``, an explicit
    N-copy state; a state that fails it raises ``AssertionError``."""
    counts, block_of = block_outcomes(spec, n)
    probs = projective_probabilities(state, 0, block_of)
    _verify_blocks(spec, state, block_of, counts, log2_multinomial(counts),
                   probs)
    return decompose(spec, n)


def prepare_oracle(n, c0, c1, seed=0, window=None, born=False):
    """One branch of the windowed preparation protocol, term by term: the
    (state, transcript) that ``preparation.prepare_approx`` returns. Each
    stage applies the drawn element of the POVM that ``verify`` checks
    (``ghz_weighting_povm``, ``row_shorten_povm``) to the whole state with
    ``apply_element`` and corrects it with ``relabel``; the pairs come in
    by ``tensor``. A stage draws from its law 1/m with the branch's next
    uniform, or, with ``born``, by Born sampling of its whole POVM
    (``locc.sample``); either way its probability must be 1/m."""
    k_minus, k_plus = target_window(n, c0 * c0) if window is None else window
    pair_levels = 2**(n - k_minus)
    ks, a, row, bc = block_labels(n, k_minus, k_plus)
    lam = np.array([c0**k * c1**(n - k)
                    for k in range(k_minus, k_plus + 1)])[ks - k_minus]
    draws, transcript = uniform_draws(seed, 1 + len(ks)), Transcript()

    def measure(state, stage, parties, u, step):
        (povm, corrections), m = stage, len(stage[0].elements)
        if born:
            outcome, state, sq = sample(state, povm, np.array([u]))
        else:
            outcome = int(_draw(np.arange(1, m + 1) / m, u))
            state, sq = apply_element(state, povm.elements[outcome])
        if abs(sq - 1.0 / m) > NORM_TOL:
            raise ImpossibleOutcomeError(f"{step}: outcome {outcome} has "
                                         f"probability {sq:.17g}, not 1/{m}")
        transcript.extend([step], povm.party, [outcome], [sq])
        old, new = corrections[outcome]
        return relabel(state, parties, old, new) if old.size else state

    state = measure(level_ghz(len(ks), (0, 1, 2)),
                    ghz_weighting_povm(lam / float(np.linalg.norm(lam))),
                    (0, 1, 2), draws[0], "weighting")
    state = tensor(state, level_epr(pair_levels, (1, 2), 3))
    # term e of row g sits at g*pair_levels + e on B and C; the row keeps
    # the first 2**(n - k) of its labels
    for g, keep in enumerate(np.bincount(row).tolist()):
        labels = range(g * pair_levels, (g + 1) * pair_levels)
        state = measure(state, row_shorten_povm(
            labels, keep, dim=len(ks) * pair_levels), (1, 2), draws[1 + g],
            f"shorten_row{g}")
    e = np.arange(len(row)) - np.searchsorted(row, row)
    state = relabel(state, 0, np.arange(len(ks)), a, new_dim=2**n)
    return relabel(state, (1, 2), row * pair_levels + e, bc,
                   new_dim=3**n), transcript


def multinomial_exact(counts) -> int:
    """Exact N! / prod(k_i!) as a Python integer."""
    total, out = 0, 1
    for k in counts:
        total += k
        out *= math.comb(total, k)
    return out


def inner(a, b) -> complex:
    """<a|b>, conjugate-linear in ``a``, summed over a's terms."""
    assert a.local_dims == b.local_dims
    bt = terms(b)
    return sum((x.conjugate() * bt.get(label, 0)
                for label, x in terms(a).items()), 0j)


def reduced_density(state, party: int) -> np.ndarray:
    """Dense density matrix of one party, term pair by term pair: rho[x, y]
    sums a_i conj(a_j) over the terms i, j that agree on every other party
    and carry labels x, y on ``party``."""
    rho = np.zeros((state.local_dims[party],) * 2, dtype=complex)
    for li, ai in terms(state).items():
        for lj, aj in terms(state).items():
            if li[:party] + li[party + 1:] == lj[:party] + lj[party + 1:]:
                rho[li[party], lj[party]] += ai * aj.conjugate()
    return rho


def one_shot_table(header, formats, columns, fmt) -> str:
    """A CLI table formatted in one pass over every row, the way the CLI
    wrote it before it wrote in row chunks: CSV from one %-template per
    row, JSON from one ``json.dumps`` of every row. ``columns`` hold
    Python objects."""
    rows = list(zip(*columns))
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    template = ",".join(formats) + "\n"
    return ",".join(header) + "\n" + "".join(template % row for row in rows)

"""Block structure of N-copy states built from a StateSpec.

The N-fold power of a spec state splits, per party and locally, into
subspaces indexed by how many copies carry each component (a count vector).
Every such block is a uniform superposition: its rows are the ways of
assigning components to copy slots, and within a row each copy of an
entangled component ranges over its correlated kets. A block is therefore
equivalent, up to local relabeling, to a tensor product of level-d
canonical states on the component supports and one multiplicity-level
GHZ-type state over the full party set.

Counting conventions for the 2-component seed state: k = number of copies
carrying the product component |000>, r = 2**(N-k) (within-row range on the
B/C pair), t = binomial(N, k) (row count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import gammaln

from .hilbert import (EXPLICIT_BUDGET, BudgetError, PureState, relabel,
                      states_equal, tensor)
from .canonical import StateSpec, level_epr, level_ghz

EXACT_N_MAX = 30
LN2 = math.log(2.0)
DECOMPOSE_MAX_ENTRIES = 200_000
_FACTORIALS = tuple(math.factorial(j) for j in range(EXACT_N_MAX + 1))


def _log2_factorial_ratio(top, *bottoms) -> np.ndarray:
    """log2(top! / prod(b!)) elementwise over broadcast integer arrays.

    The package's one log-combinatorics rule: log2 of the exact integer
    where top <= EXACT_N_MAX, gammaln above. Callers keep every b <= top.
    """
    top = np.asarray(top)
    out = gammaln(top + 1.0)
    for b in bottoms:
        out = out - gammaln(b + 1.0)
    out = np.asarray(out / LN2)
    small = top <= EXACT_N_MAX
    if small.any():
        small = np.broadcast_to(small, out.shape)
        cols = [np.broadcast_to(x, out.shape)[small].tolist()
                for x in (top, *bottoms)]
        out[small] = [
            math.log2(_FACTORIALS[t] // math.prod(_FACTORIALS[k] for k in ks))
            for t, *ks in zip(*cols)]
    return out


def log2_binomial_array(n: int, ks) -> np.ndarray:
    """log2 C(n, k) for every entry of ``ks``."""
    ks = np.asarray(ks, dtype=np.int64)
    if np.any((ks < 0) | (ks > n)):
        raise ValueError(f"binomial index outside 0..{n}")
    return _log2_factorial_ratio(n, ks, n - ks)


def multinomial_exact(counts) -> int:
    """Exact N! / prod(k_i!) as a Python integer."""
    total, out = 0, 1
    for k in counts:
        total += k
        out *= math.comb(total, k)
    return out


def log2_multinomial(counts):
    """log2(N! / prod k_i!) over the last axis of an integer count array,
    N being the sum along that axis; a scalar for one count vector."""
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError(f"negative count in {counts}")
    return _log2_factorial_ratio(counts.sum(axis=-1),
                                 *np.moveaxis(counts, -1, 0))[()]


@dataclass(frozen=True)
class BlockIndex:
    """Count vector (k_0, ..., k_l): copies carrying each spec component."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(k) for k in self.counts)
        if not counts or any(k < 0 for k in counts):
            raise ValueError(f"bad count vector {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def k(self) -> int:
        """Binomial shorthand: count of the first (product) component."""
        return self.counts[0]


def iter_block_counts(n: int, num_components: int):
    """All count vectors with the given sum, lexicographically ascending."""
    if num_components == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in iter_block_counts(n - first, num_components - 1):
            yield (first,) + rest


def _log2_block_probabilities(counts: np.ndarray, lmult: np.ndarray,
                              coeffs_sq) -> np.ndarray:
    """block_probability for every row of a count matrix, given its
    log2_multinomial ``lmult``; the per-component terms are added in
    component order."""
    out, dead = lmult, np.zeros(lmult.shape, dtype=bool)
    for k, c in zip(counts.T, coeffs_sq):
        if c == 0.0:
            dead |= k > 0
        else:
            out = out + k * math.log2(c)
    return np.where(dead, -math.inf, out)


def block_probability(n: int, counts: tuple[int, ...], coeffs_sq) -> float:
    """log2 of multinomial(n; counts) * prod(coeffs_sq ** counts)."""
    coeffs_sq = tuple(float(c) for c in coeffs_sq)
    if abs(sum(coeffs_sq) - 1.0) > 1e-9:
        raise ValueError(f"squared coefficients sum to {sum(coeffs_sq)}, not 1")
    counts = tuple(int(k) for k in counts)
    if sum(counts) != n:
        raise ValueError(f"counts {counts} do not sum to {n}")
    if len(counts) != len(coeffs_sq):
        raise ValueError("count vector and coefficient vector lengths differ")
    counts = np.array([counts])
    return float(_log2_block_probabilities(
        counts, log2_multinomial(counts), coeffs_sq)[0])


@dataclass(frozen=True)
class BlockEntry:
    index: BlockIndex
    coefficient: float
    multiplicity: int
    log2_probability: float


@dataclass(frozen=True)
class BlockDecomposition:
    n_copies: int
    entries: tuple[BlockEntry, ...]

    def total_probability(self) -> float:
        return float(sum(np.exp2(e.log2_probability) for e in self.entries
                         if e.log2_probability > -math.inf))


def classify_copies_label(spec: StateSpec, party: int, labels,
                          n: int) -> np.ndarray:
    """Count vectors of one party's flattened N-copy labels: for each entry
    of ``labels``, how many of its n digits fall in each component's
    label range (shape ``labels.shape + (components,)``)."""
    widths = [c.width(party) for c in spec.components]
    # row x: the one-hot component of local label x
    onehot = np.repeat(np.eye(len(widths), dtype=np.int64), widths, axis=0)
    rest = np.asarray(labels, dtype=np.int64)
    counts = np.zeros(rest.shape + (len(widths),), dtype=np.int64)
    for _ in range(n):
        rest, digit = np.divmod(rest, len(onehot))
        counts += onehot[digit]
    return counts


def decompose(spec: StateSpec, n: int,
              state: PureState | None = None,
              tol: float = 1e-9) -> BlockDecomposition:
    """Enumerate all blocks of the N-copy power of the spec state.

    With ``state`` (the explicit N-copy state), each entry is verified
    against the projection norm: |projection| = coefficient * sqrt(mult).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    ncomp = len(spec.components)
    total = math.comb(n + ncomp - 1, ncomp - 1)
    if total > DECOMPOSE_MAX_ENTRIES:
        raise BudgetError(
            f"{total} block entries exceed the enumeration budget "
            f"{DECOMPOSE_MAX_ENTRIES}; use block_probability or the "
            "expected-yield paths for large N")
    coeffs = [c.coefficient for c in spec.components]
    coeffs_sq = spec.squared_coefficients()

    projected: dict[tuple[int, ...], float] | None = None
    if state is not None:
        expect = tuple(d**n for d in spec.local_dims())
        if state.local_dims != expect:
            raise ValueError(
                f"state dims {state.local_dims} do not match {n} copies of "
                f"the spec (expected {expect}); unknown block structure")
        keys = classify_copies_label(spec, 0, state.labels[:, 0], n)
        found, block = np.unique(keys, axis=0, return_inverse=True)
        norms = np.sqrt(np.bincount(block.reshape(-1),
                                    np.abs(state.amps) ** 2, len(found)))
        projected = dict(zip(map(tuple, found.tolist()), norms.tolist()))

    rows = list(iter_block_counts(n, ncomp))
    table = np.array(rows)
    logps = _log2_block_probabilities(table, log2_multinomial(table),
                                      coeffs_sq).tolist()
    entries = []
    for counts, logp in zip(rows, logps):
        coeff = math.prod(c**k for c, k in zip(coeffs, counts))
        mult = multinomial_exact(counts)
        if projected is not None:
            norm = projected.get(counts, 0.0)
            if abs(norm - coeff * math.sqrt(mult)) > tol:
                raise ValueError(
                    f"projection norm {norm} of block {counts} does not "
                    f"match coefficient*sqrt(multiplicity) "
                    f"{coeff * math.sqrt(mult)}")
        entries.append(BlockEntry(BlockIndex(counts), coeff, mult, logp))
    return BlockDecomposition(n, tuple(entries))


# -- canonical labeling of the 2-component seed's blocks --------------------

def zero_position_rows(n: int, k: int) -> list[tuple[int, ...]]:
    """Rows of block (n, k): the k-subsets of copy slots carrying |000>,
    in lexicographic order."""
    return list(combinations(range(n), k))


def row_a_label(n: int, zeros: tuple[int, ...]) -> int:
    """Alice's flattened binary label for a row: 0 on |000> slots, 1 elsewhere."""
    zs = set(zeros)
    label = 0
    for i in range(n):
        label = label * 2 + (0 if i in zs else 1)
    return label


def row_bc_label(n: int, zeros: tuple[int, ...], e: int) -> int:
    """Bob's (= Claire's) flattened ternary label for within-row index e.

    The N-k non-|000> slots take digits 1 or 2; ``e`` enumerates the
    assignments lexicographically over slots (first slot most significant).
    """
    zs = set(zeros)
    free = [i for i in range(n) if i not in zs]
    bits = {}
    for j, slot in enumerate(reversed(free)):
        bits[slot] = (e >> j) & 1
    label = 0
    for i in range(n):
        label = label * 3 + (0 if i in zs else 1 + bits[i])
    return label


def block_rows(n: int, k_minus: int, k_plus: int):
    """Every row of blocks k_minus..k_plus, blocks ascending and rows
    lexicographic within a block, as (k, Alice's label, Bob's (= Claire's)
    labels in within-row order)."""
    for k in range(k_minus, k_plus + 1):
        for zeros in zero_position_rows(n, k):
            yield (k, row_a_label(n, zeros),
                   [row_bc_label(n, zeros, e) for e in range(2 ** (n - k))])


def _block_terms(n: int, k_minus: int, k_plus: int):
    """Label rows (a, bc, bc) of every term of blocks k_minus..k_plus in
    block_rows order, and the block index k of each term."""
    terms = np.array([(k, a, bc) for k, a, bcs in block_rows(n, k_minus, k_plus)
                      for bc in bcs], dtype=np.int64).reshape(-1, 3)
    return terms[:, [1, 2, 2]], terms[:, 0]


def block_state(n: int, k: int) -> PureState:
    """The normalized (n, k) block of the seed state's N-copy power:
    r*t equal amplitudes on dims (2**n, 3**n, 3**n)."""
    n, k = int(n), int(k)
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"bad block index ({n}, {k})")
    r, t = 2 ** (n - k), math.comb(n, k)
    if r * t > EXPLICIT_BUDGET:
        raise BudgetError(f"block support {r * t} exceeds the explicit budget")
    return PureState.from_columns((2**n, 3**n, 3**n), _block_terms(n, k, k)[0],
                                  np.full(r * t, 1.0 / math.sqrt(r * t)))


def verify_block_equivalence(n: int, k: int, tol: float = 1e-9) -> bool:
    """Check that block (n, k) is an r-level B-C pair times a t-level
    three-party GHZ, under the canonical relabeling."""
    target = block_state(n, k)  # checks the index and the budget first
    n, k = int(n), int(k)
    r, t = 2 ** (n - k), math.comb(n, k)
    pair = level_epr(r, (1, 2), 3)
    rows = level_ghz(t, (0, 1, 2))
    joint = tensor(pair, rows)  # labels (g, e*t+g, e*t+g)

    a_map, bc_map = {}, {}
    for g, (_, a, bcs) in enumerate(block_rows(n, k, k)):
        a_map[g] = a
        for e, bc in enumerate(bcs):
            bc_map[e * t + g] = bc
    out = relabel(joint, 0, a_map, new_dim=2**n)
    out = relabel(out, 1, bc_map, new_dim=3**n)
    out = relabel(out, 2, bc_map, new_dim=3**n)
    return states_equal(out, target, tol)


def _block_yield_table(counts: np.ndarray, lmult: np.ndarray,
                       spec: StateSpec) -> dict[tuple[int, ...], np.ndarray]:
    """block_yields for every row of a count matrix, given its
    log2_multinomial ``lmult``; each subset's per-component units are
    added in component order."""
    full = tuple(range(spec.party_count))
    out = {full: lmult}
    for comp, k in zip(spec.components, counts.T):
        if len(comp.support) >= 2:
            out[comp.support] = (out.get(comp.support, 0.0)
                                 + k * math.log2(comp.level))
    return out


def block_yields(counts: tuple[int, ...],
                 spec: StateSpec) -> dict[tuple[int, ...], float]:
    """Canonical units produced by landing in one block.

    Keys are party subsets; each entangled component's support earns
    counts * log2(level) units, and the full party set earns log2(row
    multiplicity) GHZ-type units (plus any full-support component units).
    """
    counts = tuple(counts)
    if len(counts) != len(spec.components):
        raise ValueError(
            f"count vector length {len(counts)} != {len(spec.components)} components")
    counts = np.array([counts])
    table = _block_yield_table(counts, log2_multinomial(counts), spec)
    return {s: float(v[0]) for s, v in table.items()}

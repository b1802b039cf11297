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

Canonical labeling of the seed's block (N, k): a row is the set of k copy
slots carrying |000>, and rows run in lexicographic order of that set,
which is ascending Alice label. Alice's label has binary digit 0 on those
slots and 1 on the others (copy 0 most significant). Term e of a row
(0 <= e < r) has Bob's (= Claire's) ternary label with digit 0 on the
|000> slots and 1 + bit on the free slots, where the bits of e fill the
free slots with the first free slot most significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (INT64_MAX, NORM_TOL, PureState, _check_budget,
                      _valid_state, relabel, states_equal, tensor)
from .canonical import StateSpec, _integer, level_epr, level_ghz

EXACT_N_MAX = 30
LN2 = math.log(2.0)
_FACTORIALS = tuple(math.factorial(j) for j in range(EXACT_N_MAX + 1))
# closed-form sums over k visit at most _BULK_CHUNK k at a time
_BULK_CHUNK = 2**16
# counts above this are not exact in float64
_COUNT_MAX = 2**53
# -ln of the Binomial(n, p) mass a bulk may leave out on each side, 2**-65
_TAIL_LOG = 65 * LN2
# cephes lgam, the routine behind scipy's gammaln: ln (x-1)! below 13,
# Stirling's series with cephes' correction polynomials above
_LN_FACTORIALS = np.array([math.log(math.factorial(j)) for j in range(12)])
_LN_SQRT_2PI = 0.91893853320467274178
_STIRLING_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
               7.93650340457716943945e-4, -2.77777777730099687205e-3,
               8.33333333333331927722e-2)


def _log2_factorial_ratio(top, *bottoms) -> np.ndarray:
    """log2(top! / prod(b!)) elementwise over broadcast integer arrays.

    The package's one log-combinatorics rule: log2 of the exact integer
    where top <= EXACT_N_MAX, differences of _ln_factorial above. Callers
    keep every b <= top.
    """
    top = np.asarray(top)
    small = top <= EXACT_N_MAX
    if not small.any():
        return _log2_gamma_ratio(top, *bottoms)
    cols = np.broadcast_arrays(top, *bottoms)
    small = np.broadcast_to(small, cols[0].shape)
    out = np.empty(cols[0].shape)
    out[small] = [
        math.log2(_FACTORIALS[t] // math.prod(_FACTORIALS[k] for k in ks))
        for t, *ks in zip(*(x[small].tolist() for x in cols))]
    if not small.all():
        big = ~small
        out[big] = _log2_gamma_ratio(*(x[big] for x in cols))
    return out


def _log2_gamma_ratio(top, *bottoms) -> np.ndarray:
    out = _ln_factorial(top)
    for b in bottoms:
        out = out - _ln_factorial(b)
    return np.asarray(out / LN2)


def _stirling(x):
    return (x - 0.5) * np.log(x) - x + _LN_SQRT_2PI


def _tail_mid(x):  # the rest of ln Γ(x) past _stirling, 13 <= x < 1000
    p = 1.0 / (x * x)
    a0, a1, a2, a3, a4 = _STIRLING_A
    return ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x


def _tail_large(x):  # the same for x >= 1000
    p = 1.0 / (x * x)
    return ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3)
            * p + 0.0833333333333333333333) / x


# (lo, hi, branch): each branch serves the integers lo <= x < hi
_LGAM_BRANCHES = (
    (1.0, 13.0, lambda x: _LN_FACTORIALS[x.astype(np.int64) - 1]),
    (13.0, 1000.0, lambda x: _stirling(x) + _tail_mid(x)),
    (1000.0, 1e8 + 1.0, lambda x: _stirling(x) + _tail_large(x)),
    (1e8 + 1.0, math.inf, _stirling))


def _ln_factorial(k) -> np.ndarray:
    """ln k! for integers 0 <= k <= 2**53, elementwise: cephes lgam(k + 1)
    in the same operations, so it equals scipy's gammaln(k + 1.0) except
    where numpy's log and libm's differ in the last bit (at most 2 ulps of
    the result). Each branch runs only on its own entries."""
    x = np.asarray(k) + 1.0
    out = np.empty(x.shape)
    for lo, hi, branch in _LGAM_BRANCHES:
        on = (x >= lo) & (x < hi)
        if on.all():
            out[...] = branch(x)
            break
        if on.any():
            out[on] = branch(x[on])
    return out


def _log2_factorial_diff(a, b) -> np.ndarray:
    """log2 a! - log2 b! elementwise over broadcast integer arrays, accurate
    to the ulps of its own size rather than of log2 a!. Where both exceed
    11, ln Γ(x) - ln Γ(y) with x = a + 1, y = b + 1 and d = x - y is taken
    as d ln x + (y - 1/2) log1p(d / y) - d, the difference of the _stirling
    terms, plus the difference of the tails; smaller entries subtract
    log2 a! and log2 b!, which are small themselves."""
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    out = _log2_factorial_ratio(a) - _log2_factorial_ratio(b)
    big = np.minimum(a, b) >= 12
    if big.any():
        x, y = a[big] + 1.0, b[big] + 1.0
        d = x - y

        def tail(z):
            return np.where(z < 1000.0, _tail_mid(z), _tail_large(z))

        out[big] = (d * np.log(x) + (y - 0.5) * np.log1p(d / y) - d
                    + (tail(x) - tail(y))) / LN2
    return out


def _check_count(n: int) -> None:
    if n > _COUNT_MAX:
        raise ValueError(f"N = {n} exceeds 2**53, beyond which counts are "
                         "not exact in float64")


def log2_binomial_array(n: int, ks) -> np.ndarray:
    """log2 C(n, k) for every entry of ``ks``; n at most 2**53."""
    _check_count(n)
    ks = np.asarray(ks, dtype=np.int64)
    if np.any((ks < 0) | (ks > n)):
        raise ValueError(f"binomial index outside 0..{n}")
    return _log2_factorial_ratio(n, ks, n - ks)


def _binomial_bulk(n: int, p: float) -> tuple[int, int]:
    """[lo, hi]: the k outside it carry Binomial(n, p) mass below 2**-64.

    Bernstein's inequality bounds each tail, P(K - np >= t) and
    P(np - K >= t), by exp(-t**2 / (2 (np(1-p) + t/3))); the t below makes
    that 2**-65, about 9.5 standard deviations at large n. Clipped to
    0..n; a certain outcome (p at 0 or 1) is its own bulk.
    """
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return n, n
    a = _TAIL_LOG
    t = a / 3.0 + math.sqrt(a * a / 9.0 + 2.0 * a * n * p * (1.0 - p))
    return max(0, math.floor(n * p - t)), min(n, math.ceil(n * p + t))


def _bulk_starts(n: int, p: float) -> range:
    """First k of each chunk of the Binomial(n, p) bulk (chunks of
    _BULK_CHUNK, the last one ending at the bulk's top); a bulk over its
    budget, or n above 2**53, is refused before any work."""
    _check_count(n)
    lo, hi = _binomial_bulk(n, p)
    _check_budget(f"binomial bulk at N = {n}", "bulk entries", hi - lo + 1)
    return range(lo, hi + 1, _BULK_CHUNK)


def _chunk(starts: range, i: int) -> np.ndarray:
    return np.arange(starts[i], min(starts[i] + _BULK_CHUNK,
                                    starts.stop))


def _binomial_bulk_chunks(n: int, p: float):
    """The bulk of Binomial(n, p) in chunks: yields the arrays k and
    log2 C(n, k) + k log2 p + (n - k) log2(1 - p), the log2 pmf."""
    starts = _bulk_starts(n, p)
    for i in range(len(starts)):
        ks = _chunk(starts, i)
        if not 0.0 < p < 1.0:  # the one certain outcome
            yield ks, np.zeros(len(ks))
            continue
        yield ks, (log2_binomial_array(n, ks) + ks * math.log2(p)
                   + (n - ks) * math.log2(1.0 - p))


def _binomial_mode_chunks(n: int, p: float):
    """As _binomial_bulk_chunks, but above EXACT_N_MAX log2 pmf(k) is taken
    relative to the mode m, log2 pmf(k) - log2 pmf(m): the sum of
    log2((n - j) / (j + 1)) from m outward to k, plus
    (k - m) log2(p / (1 - p)).
    Nothing as large as log2 C(n, k) is formed, so rounding cannot tilt
    the pmf. The mode's chunk comes first, then the chunks above it
    ascending and those below descending; each carries on the running
    sum of its neighbour, so every k gets one sequential sum from m."""
    if n <= EXACT_N_MAX or not 0.0 < p < 1.0:
        yield from _binomial_bulk_chunks(n, p)
        return
    starts = _bulk_starts(n, p)
    m = min(max(math.floor((n + 1) * p), starts.start), starts.stop - 1)
    tilt = math.log2(p / (1.0 - p))

    def steps(j):  # log2 C(n, j + 1) - log2 C(n, j)
        return np.log2((n - j) / (j + 1.0))

    def tilted(ks, s):
        return ks, s + (ks - m) * tilt

    home = (m - starts.start) // _BULK_CHUNK
    ks = _chunk(starts, home)
    i = m - int(ks[0])
    up = np.cumsum(np.concatenate(([0.0], steps(ks[i:-1]))))
    down = np.cumsum(np.concatenate(([0.0], -steps(ks[:i][::-1]))))
    yield tilted(ks, np.concatenate((down[:0:-1], up)))
    carry = up[-1]
    for c in range(home + 1, len(starts)):
        ks = _chunk(starts, c)
        s = np.cumsum(np.concatenate(([carry], steps(ks - 1))))[1:]
        carry = s[-1]
        yield tilted(ks, s)
    carry = down[-1]
    for c in range(home - 1, -1, -1):
        ks = _chunk(starts, c)
        s = np.cumsum(np.concatenate(([carry], -steps(ks[::-1]))))[1:]
        carry = s[-1]
        yield tilted(ks, s[::-1])


def log2_multinomial(counts):
    """log2(N! / prod k_i!) over the last axis of an integer count array,
    N being the sum along that axis; a scalar for one count vector."""
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError(f"negative count in {counts}")
    return _log2_factorial_ratio(counts.sum(axis=-1),
                                 *np.moveaxis(counts, -1, 0))[()]


def _block_counts(n: int, m: int) -> np.ndarray:
    """Every count vector of m components summing to n, as the rows of an
    int64 matrix in lexicographic order: each row's next entry runs over
    0..(what is left) in turn, one column at a time."""
    _check_budget(f"block table of N = {n} over {m} components", "block rows",
                  math.comb(n + m - 1, m - 1))
    cols = []
    left = np.array([n], dtype=np.int64)
    for _ in range(m - 1):
        reps = left + 1
        first = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        cols = [np.repeat(c, reps) for c in cols] + [first]
        left = np.repeat(left, reps) - first
    return np.column_stack(cols + [left])


def _multinomials(counts: np.ndarray) -> np.ndarray:
    """Exact N! / prod(k_i!) for each row of a count matrix, as Python ints
    in an object array: the product over the columns of C(left, k_i), left
    being what the columns before leave of N. Each C(top, k) is read from
    top's row of Pascal's triangle, formed once, each entry from the one
    before by one multiplication and one exact division."""
    left = counts.sum(axis=1)
    out = np.ones(len(counts), dtype=object)
    for k in counts.T[:-1]:
        tops = np.flatnonzero(np.bincount(left)).tolist()
        table, start = [], np.zeros(tops[-1] + 1, dtype=np.int64)
        for top in tops:
            start[top] = len(table)
            c = 1
            table.append(c)
            for j in range(top):
                c = c * (top - j) // (j + 1)
                table.append(c)
        out = out * np.array(table, dtype=object)[start[left] + k]
        left = left - k
    return out


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
    if not abs(sum(coeffs_sq) - 1.0) <= NORM_TOL:  # NaN too
        raise ValueError(f"squared coefficients sum to {sum(coeffs_sq)}, not 1")
    n = _integer(n, "n")
    counts = tuple(_integer(k, "count") for k in counts)
    if sum(counts) != n:
        raise ValueError(f"counts {counts} do not sum to {n}")
    if len(counts) != len(coeffs_sq):
        raise ValueError("count vector and coefficient vector lengths differ")
    counts = np.array([counts])
    return float(_log2_block_probabilities(
        counts, log2_multinomial(counts), coeffs_sq)[0])


@dataclass(frozen=True)
class BlockDecomposition:
    """The blocks of an N-copy power as columns, one row per count vector
    in lexicographic order. ``multiplicities`` holds exact Python ints
    (they pass 2**63 near N = 60)."""

    n_copies: int
    counts: np.ndarray
    coefficients: np.ndarray
    multiplicities: np.ndarray
    log2_probabilities: np.ndarray


def _spec_party(spec: StateSpec, party) -> int:
    """``party`` as an int that indexes one of the spec's parties."""
    party = _integer(party, "party")
    if not 0 <= party < spec.party_count:
        raise ValueError(f"party {party} outside 0..{spec.party_count - 1}")
    return party


def classify_copies_label(spec: StateSpec, party: int, labels,
                          n: int) -> np.ndarray:
    """Count vectors of one party's flattened N-copy labels: for each entry
    of ``labels``, how many of its n digits fall in each component's
    label range (shape ``labels.shape + (components,)``)."""
    party, n = _spec_party(spec, party), _integer(n, "n")
    widths = [c.width(party) for c in spec.components]
    # row x: the one-hot component of local label x
    onehot = np.repeat(np.eye(len(widths), dtype=np.int64), widths, axis=0)
    rest = np.asarray(labels, dtype=np.int64)
    counts = np.zeros(rest.shape + (len(widths),), dtype=np.int64)
    for _ in range(n):
        rest, digit = np.divmod(rest, len(onehot))
        counts += onehot[digit]
    return counts


def decompose(spec: StateSpec, n: int) -> BlockDecomposition:
    """Enumerate all blocks of the N-copy power of the spec state.

    Refused before any enumeration if the largest multiplicity has more
    decimal digits than Python's int-to-str limit lets it print.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    ncomp = len(spec.components)
    _check_count(n)
    q, r = divmod(n, ncomp)  # the most even count vector's is the largest
    top = log2_multinomial([q + 1] * r + [q] * (ncomp - r)) / math.log2(10)
    _check_budget(f"the largest multiplicity at N = {n}",
                  "multiplicity digits", math.floor(top) + 1)
    counts = _block_counts(n, ncomp)
    # each coefficient c**k from a table of Python powers (numpy's vector
    # power can differ in the last bit), multiplied in component order
    coefficients = np.ones(len(counts))
    for comp, k in zip(spec.components, counts.T):
        c = comp.coefficient
        coefficients = coefficients * np.array([c**j for j in range(n + 1)])[k]
    mults = _multinomials(counts)
    logps = _log2_block_probabilities(counts, log2_multinomial(counts),
                                      spec.squared_coefficients())
    return BlockDecomposition(n, counts, coefficients, mults, logps)


# -- canonical labeling of the 2-component seed's blocks --------------------

def row_a_label(n: int, zeros: tuple[int, ...]) -> int:
    """Scalar Alice label of the row with |000> on the slots ``zeros``."""
    return sum(2 ** (n - 1 - i) for i in range(n) if i not in zeros)


def row_bc_label(n: int, zeros: tuple[int, ...], e: int) -> int:
    """Scalar Bob (= Claire) label of term e of the row ``zeros``."""
    free = [i for i in range(n) if i not in zeros]
    bits = {slot: (e >> j) & 1 for j, slot in enumerate(reversed(free))}
    return sum(3 ** (n - 1 - i) * (1 + bit) for i, bit in bits.items())


def block_labels(n: int, k_minus: int, k_plus: int):
    """Blocks k_minus..k_plus in the canonical labeling, as int64 arrays:
    block index k and Alice label per row, then row and Bob (= Claire)
    label per term. Refuses a window whose largest Bob label,
    3**n - 3**k_minus, does not fit in int64."""
    n = _integer(n, "n")
    k_minus, k_plus = (_integer(k, "window bound") for k in (k_minus, k_plus))
    if not 0 <= k_minus <= k_plus <= n:
        raise ValueError(f"window ({k_minus}, {k_plus}) outside 0..{n}")
    _check_budget(f"block labels at N = {n}", "explicit copies", n)
    if 3**n - 3**k_minus > INT64_MAX:
        raise ValueError(f"labels of block ({n}, {k_minus}) exceed int64")
    # every term, slot by slot from copy 0, while its |000> count can still
    # land in the window; each row's terms come out by ascending e
    a = bc = zeros = np.zeros(1, dtype=np.int64)
    for i in range(n):
        a = (2 * a[:, None] + [0, 1, 1]).ravel()
        bc = (3 * bc[:, None] + [0, 1, 2]).ravel()
        zeros = (zeros[:, None] + [1, 0, 0]).ravel()
        live = (zeros <= k_plus) & (zeros + n - 1 - i >= k_minus)
        a, bc, zeros = a[live], bc[live], zeros[live]
    order = np.lexsort((a, zeros))
    a, bc, zeros = a[order], bc[order], zeros[order]
    first = np.diff(a, prepend=-1) != 0
    return zeros[first], a[first], np.cumsum(first) - 1, bc


def block_state(n: int, k: int) -> PureState:
    """The normalized (n, k) block of the seed state's N-copy power:
    r*t equal amplitudes on dims (2**n, 3**n, 3**n)."""
    n, k = _integer(n, "n"), _integer(k, "block index")
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"bad block index ({n}, {k})")
    r, t = 2 ** (n - k), math.comb(n, k)
    _check_budget(f"block ({n}, {k})", "explicit terms", r * t)
    _, a, row, bc = block_labels(n, k, k)
    # distinct in-range rows by construction: Bob's labels are distinct
    return _valid_state((2**n, 3**n, 3**n), np.column_stack([a[row], bc, bc]),
                        np.full(r * t, 1.0 / math.sqrt(r * t), dtype=complex))


def verify_block_equivalence(n: int, k: int) -> bool:
    """Check that block (n, k) is an r-level B-C pair times a t-level
    three-party GHZ, under the canonical relabeling."""
    target = block_state(n, k)  # checks the index and the budget first
    n, k = _integer(n, "n"), _integer(k, "block index")
    r, t = 2 ** (n - k), math.comb(n, k)
    # labels (g, e*t+g, e*t+g) onto target row g*r + e
    joint = tensor(level_epr(r, (1, 2), 3), level_ghz(t, (0, 1, 2)))
    bc_old = np.arange(r * t).reshape(r, t).T.ravel()
    bc_new = target.labels[:, 1]
    out = relabel(joint, 0, np.arange(t), target.labels[::r, 0],
                  new_dim=2**n)
    out = relabel(out, (1, 2), bc_old, bc_new, new_dim=3**n)
    return states_equal(out, target)


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
    counts = tuple(_integer(k, "count") for k in counts)
    if len(counts) != len(spec.components):
        raise ValueError(
            f"count vector length {len(counts)} != {len(spec.components)} components")
    counts = np.array([counts])
    table = _block_yield_table(counts, log2_multinomial(counts), spec)
    return {s: float(v[0]) for s, v in table.items()}

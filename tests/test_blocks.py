"""Block enumeration, probabilities, canonical labels, and equivalence."""

import math
import sys
from itertools import combinations

import numpy as np
import pytest
from conftest import (block_counts_oracle, checked_decompose,
                      multinomial_exact, psi_prime, terms)

from eprghz import blocks
from eprghz.blocks import (
    _block_counts, block_labels, block_probability, block_state, block_yields,
    classify_copies_label, decompose, log2_binomial_array, log2_multinomial,
    row_a_label, row_bc_label, verify_block_equivalence,
)
from eprghz.canonical import (
    CanonicalComponent, StateSpec, copies, psi, psi_prime_spec, psi_spec,
)
from eprghz.hilbert import BudgetError, amplitude_distance
from eprghz.preparation import build_target, prepare_approx

# block probabilities of psi(0.6, 0.8) at N=2, indexed by k = copies of the
# product component: C(2,k) 0.36^k 0.64^(2-k)
P2 = {0: 0.4096, 1: 0.4608, 2: 0.1296}


# -- log-space combinatorics -------------------------------------------------

def test_log2_factorial_small_exact():
    # n! is the multinomial of n ones
    for n in range(15):
        assert log2_multinomial([1] * n) == pytest.approx(
            math.log2(math.factorial(n)), abs=1e-13)


def test_log2_factorial_large_matches_bigint():
    exact = math.log2(math.factorial(1000))
    assert abs(log2_multinomial([1] * 1000) - exact) < 1e-9
    got = log2_binomial_array(1000, np.arange(1001))
    want = [math.log2(math.comb(1000, k)) for k in range(1001)]
    assert np.max(np.abs(got - want)) < 1e-9


def test_log2_factorial_rule_per_entry():
    # exact integers up to EXACT_N_MAX and ln Γ above (equal to scipy's
    # gammaln on these tops), entry by entry, whether a call mixes both
    # kinds or holds one
    from scipy.special import gammaln
    tops = np.arange(61)
    want = [math.log2(math.factorial(t)) for t in range(31)]
    want += list(gammaln(tops[31:] + 1.0) / math.log(2.0))
    assert blocks._log2_factorial_ratio(tops).tolist() == want
    assert blocks._log2_factorial_ratio(tops[31:]).tolist() == want[31:]
    assert [float(blocks._log2_factorial_ratio(t)) for t in tops] == want


def test_ln_factorial_matches_scipy_gammaln():
    # the port runs cephes lgam (scipy's gammaln) at integer arguments in
    # the same operations; where numpy's log and libm's differ in the last
    # bit, the result moves by at most 2 ulps (one ulp of log x, times x)
    gammaln = pytest.importorskip("scipy.special").gammaln
    rng = np.random.default_rng(20)
    ks = np.concatenate([
        np.arange(100_000), rng.integers(0, 2**53, 450_000, endpoint=True),
        np.exp2(rng.uniform(0, 53, 450_000)).astype(np.int64)])
    got, want = blocks._ln_factorial(ks), gammaln(ks + 1.0)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
    assert np.count_nonzero(got != want) < 1e-4 * len(ks)


def test_ln_factorial_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    ks = np.unique(np.concatenate([
        np.arange(40), [999, 1000, 10**8, 10**8 + 1, 2**53],
        np.exp2(rng.uniform(0, 53, 2000)).astype(np.int64)]))
    with mpmath.workdps(40):
        want = np.array([float(mpmath.loggamma(k + 1)) for k in ks.tolist()])
    got = blocks._ln_factorial(ks)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


def test_log2_factorial_diff_against_mpmath():
    # accurate to the ulps of |a - b| log2 max(a, b), not of log2 a!
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(22)
    for base in (5, 40, 990, 5000, 10**6, 10**12, 2**52):
        reach = 10 * math.isqrt(base) + 3
        b = np.full(50, base)
        a = np.maximum(base + rng.integers(-reach, reach + 1, 50), 0)
        got = blocks._log2_factorial_diff(a, b)
        with mpmath.workdps(40):
            want = [float((mpmath.loggamma(x + 1) - mpmath.loggamma(base + 1))
                          / mpmath.log(2)) for x in a.tolist()]
        scale = np.maximum(np.abs(a - b) * np.log2(np.maximum(a, b) + 1.0),
                           1.0)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(scale)), base


@pytest.mark.parametrize("n,k", [(5, 2), (30, 15), (100, 3), (1000, 500)])
def test_log2_binomial_matches_comb(n, k):
    assert float(log2_binomial_array(n, k)) == pytest.approx(
        math.log2(math.comb(n, k)), abs=1e-9)


def test_log2_binomial_array():
    ks = np.arange(7)
    got = log2_binomial_array(6, ks)
    want = [math.log2(math.comb(6, k)) for k in ks]
    assert got == pytest.approx(want, abs=1e-12)


def test_multinomial_exact():
    assert multinomial_exact((3, 2, 1)) == 60
    assert multinomial_exact((0, 0, 4)) == 1
    assert log2_multinomial((3, 2, 1)) == pytest.approx(math.log2(60))


def test_log2_multinomial_rows():
    # one call over rows on both sides of EXACT_N_MAX equals row by row
    rows = [(3, 2, 1), (0, 0, 4), (20, 15, 5), (200, 0, 1)]
    got = log2_multinomial(np.array(rows))
    assert got.shape == (4,)
    assert got.tolist() == [log2_multinomial(r) for r in rows]
    assert got == pytest.approx(
        [math.log2(multinomial_exact(r)) for r in rows], abs=1e-9)


# -- block index enumeration -------------------------------------------------

def test_block_counts_lex_and_complete():
    # n = 0, one component, and psi-prime's four components at N = 40
    for n, m in [(3, 3), (4, 1), (0, 3), (0, 1), (5, 1), (7, 2), (6, 5),
                 (40, 4)]:
        counts = _block_counts(n, m)
        assert counts.dtype == np.int64 and counts.shape[1] == m
        assert list(map(tuple, counts.tolist())) == block_counts_oracle(n, m)
        assert len(counts) == math.comb(n + m - 1, m - 1)


# -- block probabilities -----------------------------------------------------

def test_block_probability_frozen_n2():
    for k, p in P2.items():
        logp = block_probability(2, (k, 2 - k), (0.36, 0.64))
        assert 2.0**logp == pytest.approx(p, abs=1e-12)


def test_block_probability_validation():
    with pytest.raises(ValueError):
        block_probability(2, (1, 2), (0.36, 0.64))     # counts sum to 3
    with pytest.raises(ValueError):
        block_probability(2, (1, 1), (0.5, 0.6))       # coeffs not normalized
    with pytest.raises(ValueError):
        block_probability(2, (1, 1, 0), (0.36, 0.64))  # length mismatch
    assert block_probability(2, (1, 1), (0.0, 1.0)) == -math.inf


def total_probability(d):
    return float(np.exp2(d.log2_probabilities).sum())


def test_total_block_probability():
    assert total_probability(decompose(psi_spec(0.6, 0.8), 50)) == \
        pytest.approx(1.0, abs=1e-9)
    assert total_probability(decompose(psi_prime_spec(0.5, 0.5, 0.5, 0.5),
                                       20)) == pytest.approx(1.0, abs=1e-9)
    assert total_probability(decompose(psi_spec(1.0, 0.0), 10)) == \
        pytest.approx(1.0)


# -- decomposition -----------------------------------------------------------

def test_decompose_psi_n2_with_projection():
    state = copies(psi(0.6, 0.8), 2)
    d = checked_decompose(psi_spec(0.6, 0.8), 2, state)
    assert d.counts.tolist() == [[0, 2], [1, 1], [2, 0]]
    assert d.coefficients.tolist() == pytest.approx([0.64, 0.48, 0.36])
    assert d.multiplicities.tolist() == [1, 2, 1]
    assert total_probability(d) == pytest.approx(1.0)


def test_decompose_matches_loop_reference():
    # the per-block loop that one vectorized call replaced, same arithmetic
    spec = psi_prime_spec(0.1, 0.3, 0.5, math.sqrt(0.65))
    csq = spec.squared_coefficients()
    d = decompose(spec, 5)
    for counts, logp in zip(d.counts.tolist(),
                            d.log2_probabilities.tolist()):
        want = math.log2(multinomial_exact(counts))
        for k, c in zip(counts, csq):
            if k:
                want += k * math.log2(c)
        assert logp == want


def test_decompose_psi_n3_frozen():
    d = checked_decompose(psi_spec(0.6, 0.8), 3, copies(psi(0.6, 0.8), 3))
    assert d.coefficients.tolist() == \
        pytest.approx([0.512, 0.384, 0.288, 0.216])
    assert d.multiplicities.tolist() == [1, 3, 3, 1]
    assert np.exp2(d.log2_probabilities).tolist() == \
        pytest.approx([0.262144, 0.442368, 0.248832, 0.046656])


def test_decompose_psi_prime_n2_multiplicities():
    c = 0.5
    d = checked_decompose(psi_prime_spec(c, c, c, c), 2,
                          copies(psi_prime(c, c, c, c), 2))
    mults = dict(zip(map(tuple, d.counts.tolist()), d.multiplicities))
    assert mults == {
        (0, 0, 0, 2): 1, (0, 0, 1, 1): 2, (0, 0, 2, 0): 1,
        (0, 1, 0, 1): 2, (0, 1, 1, 0): 2, (0, 2, 0, 0): 1,
        (1, 0, 0, 1): 2, (1, 0, 1, 0): 2, (1, 1, 0, 0): 2,
        (2, 0, 0, 0): 1,
    }
    assert total_probability(d) == pytest.approx(1.0)


def test_decompose_multiplicities_are_exact():
    # every row's multinomial as a Python int, past 2**63 at these N
    spec3 = StateSpec(3, (CanonicalComponent(math.sqrt(0.4), (0,)),
                          CanonicalComponent(math.sqrt(0.35), (1, 2), level=3),
                          CanonicalComponent(0.5, (0, 1))))
    for spec, n in [(psi_spec(0.6, 0.8), 400), (spec3, 60),
                    (psi_prime_spec(0.5, 0.5, 0.5, 0.5), 40)]:
        d = decompose(spec, n)
        mults = d.multiplicities.tolist()
        assert all(type(m) is int for m in mults)
        assert mults == [multinomial_exact(r) for r in d.counts.tolist()]
        assert max(mults) > 2**63


def test_decompose_rejects_mismatched_state():
    # one copy where two are claimed: its labels land on the wrong blocks
    with pytest.raises(AssertionError, match="probability"):
        checked_decompose(psi_spec(0.6, 0.8), 2, psi(0.6, 0.8))
    # the block probabilities catch a state from different coefficients
    with pytest.raises(AssertionError, match="probability"):
        checked_decompose(psi_spec(0.6, 0.8), 2, copies(psi(0.8, 0.6), 2))


def test_decompose_entry_budget():
    with pytest.raises(BudgetError, match=(
            "^block table of N = 120 over 4 components needs 302621 rows, "
            "budget is 200000 rows$")):
        decompose(psi_prime_spec(0.5, 0.5, 0.5, 0.5), 120)


def test_decompose_refuses_unprintable_multiplicities():
    """Refused exactly where the largest multiplicity, C(N, N/2), has more
    digits than Python's int-to-str limit, read at call time."""
    digits = {n: len(str(math.comb(n, n // 2))) for n in range(2125, 2140)}
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for n, d in digits.items():
            if d > 640:
                with pytest.raises(BudgetError, match=(
                        f"^the largest multiplicity at N = {n} needs {d} "
                        "digits, budget is 640 digits$")):
                    decompose(psi_spec(0.6, 0.8), n)
            else:
                str(decompose(psi_spec(0.6, 0.8), n).multiplicities.max())
    finally:
        sys.set_int_max_str_digits(old)
    assert min(digits.values()) <= 640 < max(digits.values())


def test_classify_copies_label():
    spec = psi_spec(0.6, 0.8)
    # party 0 binary digits, copy 0 most significant: label 5 = (1,0,1)
    assert classify_copies_label(spec, 0, 5, 3).tolist() == [1, 2]
    assert classify_copies_label(spec, 0, [5, 0], 3).tolist() == \
        [[1, 2], [3, 0]]
    # party 1 ternary: label 7 = (0,2,1) -> one product digit, two paired
    assert classify_copies_label(spec, 1, 7, 3).tolist() == [1, 2]
    # psi' party 0: six local labels in four ranges of widths 1, 1, 2, 2
    comp = (0, 1, 2, 2, 3, 3)
    want = [[int(comp[x // 6] == c) + int(comp[x % 6] == c)
             for c in range(4)] for x in range(36)]
    spec = psi_prime_spec(0.5, 0.5, 0.5, 0.5)
    assert classify_copies_label(spec, 0, np.arange(36), 2).tolist() == want


# -- canonical row labels ----------------------------------------------------

def test_row_labels_explicit():
    # n=2, zeros=(0,): copy 0 carries |000>, a = binary 01
    assert row_a_label(2, (0,)) == 1
    assert row_a_label(2, (1,)) == 2
    assert row_bc_label(2, (0,), 0) == 1    # digits (0, 1)
    assert row_bc_label(2, (0,), 1) == 2    # digits (0, 2)
    assert row_bc_label(2, (), 3) == 8      # digits (2, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_labels_bijective(n):
    seen = set()
    for k in range(n + 1):
        for zeros in combinations(range(n), k):
            a = row_a_label(n, zeros)
            for e in range(2 ** (n - k)):
                pair = (a, row_bc_label(n, zeros, e))
                assert pair not in seen
                seen.add(pair)
    assert len(seen) == 3**n


def _scalar_rows(n, k):
    """Block (n, k) by the scalar rule: (Alice label, Bob labels) per row,
    rows in lexicographic zero-set order."""
    return [(row_a_label(n, zeros),
             [row_bc_label(n, zeros, e) for e in range(2 ** (n - k))])
            for zeros in combinations(range(n), k)]


@pytest.mark.parametrize("n", range(9))
def test_block_labels_match_the_scalar_rule(n):
    """Every window's array labeling is the scalar rule row by row and, as
    a set, the support of the N-copy power inside the window."""
    scalar = {k: _scalar_rows(n, k) for k in range(n + 1)}
    if n:
        power = copies(psi(0.6, 0.8), n).labels
        assert (power[:, 1] == power[:, 2]).all()
        power_k = n - np.array([bin(a).count("1")
                                for a in power[:, 0].tolist()])
    for k_minus in range(n + 1):
        for k_plus in range(k_minus, n + 1):
            ks, a, row, bc = block_labels(n, k_minus, k_plus)
            want = [(k, a_g, bcs) for k in range(k_minus, k_plus + 1)
                    for a_g, bcs in scalar[k]]
            assert ks.tolist() == [k for k, _, _ in want]
            assert a.tolist() == [a_g for _, a_g, _ in want]
            assert row.tolist() == [g for g, (_, _, bcs) in enumerate(want)
                                    for _ in bcs]
            assert bc.tolist() == [x for _, _, bcs in want for x in bcs]
            if n:
                inside = (power_k >= k_minus) & (power_k <= k_plus)
                assert set(zip(a[row].tolist(), bc.tolist())) == set(
                    zip(power[inside, 0].tolist(), power[inside, 1].tolist()))
                assert len(bc) == inside.sum()


def test_block_consumers_never_call_the_scalar_rule(monkeypatch):
    def refuse(*args):
        raise AssertionError("scalar label function called")

    monkeypatch.setattr(blocks, "row_a_label", refuse)
    monkeypatch.setattr(blocks, "row_bc_label", refuse)
    assert verify_block_equivalence(6, 2)
    assert block_state(5, 1).support_size == 5 * 2**4
    target = build_target(5, 0.6, 0.8, (0, 4))
    assert target.is_normalized()
    state, _, _ = prepare_approx(5, 0.6, 0.8, seed=1, window=(0, 4))
    assert amplitude_distance(state, target) < 1e-9


def test_labels_beyond_int64_are_refused():
    assert block_state(39, 38).support_size == 78
    s = block_state(40, 39)  # largest Bob label 2 * 3**39 = 8.1e18
    assert s.support_size == 80
    assert int(s.labels[:, 1].max()) == 2 * 3**39
    with pytest.raises(ValueError, match="int64"):
        block_state(40, 38)
    with pytest.raises(ValueError, match="int64"):
        verify_block_equivalence(41, 40)
    with pytest.raises(ValueError, match="int64"):
        build_target(40, 0.6, 0.8, (38, 40))


# -- block states and equivalence --------------------------------------------

def test_block_state_explicit_n2_k1():
    s = block_state(2, 1)
    assert s.local_dims == (4, 9, 9)
    assert terms(s) == pytest.approx(
        {(1, 1, 1): 0.5, (1, 2, 2): 0.5, (2, 3, 3): 0.5, (2, 6, 6): 0.5})


def test_block_state_validation_and_budget():
    with pytest.raises(ValueError):
        block_state(2, 3)
    with pytest.raises(BudgetError):
        block_state(40, 0)


@pytest.mark.parametrize("n,k", [(0, 0), (1, 0), (1, 1), (3, 1), (5, 2)])
def test_block_equivalence_cases(n, k):
    assert verify_block_equivalence(n, k)


def test_blocks_partition_the_power():
    # the N-copy state restricted to block (n,k) is coefficient * block_state
    state = copies(psi(0.6, 0.8), 2)
    total = {}
    for k in range(3):
        b = block_state(2, k)
        coeff = 0.6**k * 0.8**(2 - k) * math.sqrt(math.comb(2, k))
        for l, a in terms(b).items():
            total[l] = total.get(l, 0.0) + coeff * a
    assert total == pytest.approx(terms(state))


# -- per-block yields --------------------------------------------------------

def test_block_yields_psi():
    spec = psi_spec(0.6, 0.8)
    y = block_yields((1, 1), spec)
    assert y == {(0, 1, 2): 1.0, (1, 2): 1.0}   # log2 C(2,1) and 1 ebit
    y = block_yields((0, 3), spec)
    assert y == {(0, 1, 2): 0.0, (1, 2): 3.0}


def test_block_yields_full_support_component():
    spec = StateSpec(3, (
        CanonicalComponent(math.sqrt(0.5), (0,)),
        CanonicalComponent(math.sqrt(0.5), (0, 1, 2), level=3),
    ))
    y = block_yields((1, 2), spec)
    # full set carries the row term plus the component's own units
    assert y[(0, 1, 2)] == pytest.approx(math.log2(3) + 2 * math.log2(3))


def test_block_yields_length_mismatch():
    with pytest.raises(ValueError):
        block_yields((1, 1, 1), psi_spec(0.6, 0.8))

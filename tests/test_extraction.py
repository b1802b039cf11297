"""Asymptotic rates, finite-N expected yields, and Monte-Carlo extraction."""

import math

import numpy as np
import pytest
from conftest import block_counts_oracle, checked_decompose
from hypothesis import given, settings
from hypothesis import strategies as st

from eprghz.blocks import (block_probability, block_state, block_yields,
                           log2_multinomial)
from eprghz.canonical import (
    CanonicalComponent, StateSpec, copies, psi, psi_general, psi_prime_spec,
    psi_spec, random_spec,
)
from eprghz import blocks, extraction, locc
from eprghz.extraction import (
    _flat_outcome, _verify_blocks, asymptotic_rates, block_measurement_povm,
    block_outcomes, entropy_consistency, expected_means, expected_yields,
    run_extraction,
)
from eprghz.hilbert import BudgetError, PureState, entropy
from eprghz.locc import (_draw, as_generator, outcome_probabilities,
                         projective_probabilities, trial_seed, trial_seeds)

HALF = math.sqrt(0.5)
FULL3 = (0, 1, 2)

# frozen N=2 expectations for psi(0.6, 0.8): E[yield per copy] and the
# variance across single runs, from the three block probabilities
# (0.4096, 0.4608, 0.1296)
N2_EPR, N2_GHZ = 0.64, 0.2304
N2_EPR_VAR, N2_GHZ_VAR = 0.1152, 0.06211584


# -- asymptotic rates ----------------------------------------------------------

def test_rates_psi():
    r = asymptotic_rates(psi_spec(0.6, 0.8))
    assert r.per_subset == pytest.approx({(1, 2): 0.64})
    assert r.full == pytest.approx(0.9426831892554922, abs=1e-12)


def test_rates_psi_prime_equal():
    r = asymptotic_rates(psi_prime_spec(0.5, 0.5, 0.5, 0.5))
    assert r.per_subset == pytest.approx(
        {(1, 2): 0.25, (0, 2): 0.25, (0, 1): 0.25})
    assert r.full == pytest.approx(2.0)


def test_rates_product_state():
    r = asymptotic_rates(psi_spec(1.0, 0.0))
    assert r.per_subset == {}
    assert r.full == 0.0


def test_rates_full_support_component():
    spec = StateSpec(3, (
        CanonicalComponent(math.sqrt(0.5), (0,)),
        CanonicalComponent(math.sqrt(0.5), (0, 1, 2), level=3),
    ))
    r = asymptotic_rates(spec)
    assert r.per_subset == pytest.approx({(0, 1, 2): 0.5 * math.log2(3)})
    assert r.full == pytest.approx(1.0)


# -- expected yields -----------------------------------------------------------

def test_expected_yields_n2_frozen():
    y = expected_yields(psi_spec(0.6, 0.8), 2)
    assert y.n_copies == 2 and y.trials is None
    assert y.epr_per_copy[(1, 2)] == pytest.approx(N2_EPR, abs=1e-12)
    assert y.ghz_per_copy == pytest.approx(N2_GHZ, abs=1e-12)
    assert y.epr_variance[(1, 2)] == pytest.approx(N2_EPR_VAR, abs=1e-12)
    assert y.ghz_variance == pytest.approx(N2_GHZ_VAR, abs=1e-12)


@pytest.mark.parametrize("c0_sq", [0.1, 0.36, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 7, 20, 1000])
def test_epr_yield_is_exactly_c1_squared(n, c0_sq):
    spec = psi_spec(math.sqrt(c0_sq), math.sqrt(1 - c0_sq))
    y = expected_yields(spec, n)
    assert y.epr_per_copy[(1, 2)] == pytest.approx(1 - c0_sq, abs=1e-12)


def test_ghz_yield_frozen_values():
    spec = psi_spec(HALF, HALF)
    assert expected_yields(spec, 5).ghz_per_copy == \
        pytest.approx(0.5603615177913804, abs=1e-12)
    assert expected_yields(spec, 10**4).ghz_per_copy == \
        pytest.approx(0.9992309048226263, abs=1e-9)


def test_ghz_yield_monotone_and_bounded():
    spec = psi_spec(HALF, HALF)
    vals = [expected_yields(spec, n).ghz_per_copy
            for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < 1.0 for v in vals)   # entropy is the ceiling


def test_yields_degenerate_coefficients():
    y = expected_yields(psi_spec(1.0, 0.0), 5)
    assert y.epr_per_copy == {} and y.ghz_per_copy == 0.0
    y = expected_yields(psi_spec(0.0, 1.0), 5)
    assert y.epr_per_copy[(1, 2)] == 1.0 and y.ghz_per_copy == 0.0


def test_variances_match_enumeration_psi_prime():
    spec = psi_prime_spec(0.5, 0.5, 0.5, 0.5)
    n = 3
    y = expected_yields(spec, n)
    csq = spec.squared_coefficients()
    # brute-force joint moments over all blocks
    ghz_mean = ghz_sq = 0.0
    for counts in block_counts_oracle(n, 4):
        p = 2.0 ** block_probability(n, counts, csq)
        v = math.log2(math.factorial(n)) - sum(
            math.log2(math.factorial(k)) for k in counts)
        ghz_mean += p * v / n
        ghz_sq += p * (v / n) ** 2
    assert y.ghz_per_copy == pytest.approx(ghz_mean, abs=1e-12)
    assert y.ghz_variance == pytest.approx(ghz_sq - ghz_mean**2, abs=1e-12)


def test_variances_nan_when_enumeration_too_large():
    y = expected_yields(psi_prime_spec(0.5, 0.5, 0.5, 0.5), 150)
    assert math.isnan(y.ghz_variance)
    # the means stay available at any N
    assert y.epr_per_copy[(1, 2)] == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("spec, n", [
    (psi_spec(0.6, 0.8), 7), (psi_spec(0.6, 0.8), 10**6),
    (psi_prime_spec(0.6, 0.5, 0.4, 0.4795831523312719), 40),
])
def test_expected_yields_means_are_expected_means(spec, n):
    """expected_yields is expected_means plus the variance pass: the same
    floats, to the bit."""
    y = expected_yields(spec, n)
    assert (y.epr_per_copy, y.ghz_per_copy) == expected_means(spec, n)


def test_expected_yields_validation():
    for expected in (expected_means, expected_yields):
        with pytest.raises(ValueError):
            expected(psi_spec(0.6, 0.8), 0)


# -- block measurement POVM ----------------------------------------------------

def test_block_povm_guard():
    with pytest.raises(BudgetError, match=(
            "^block measurement of 22 copies on party 0 needs 4194304 "
            "labels, budget is 4000000 labels$")):
        block_measurement_povm(psi_spec(0.6, 0.8), 22)   # 2^22 labels


PSI_PRIME = psi_prime_spec(0.6, 0.5, 0.4, 0.4795831523312719)


@pytest.mark.parametrize("spec, n", [
    (psi_spec(0.6, 0.8), 6), (PSI_PRIME, 4),
    (random_spec(3, np.random.default_rng(5)), 3),
])
def test_block_outcome_probabilities_equal_the_expanded_povm(spec, n):
    """One bincount over the label map gives, bit for bit, the Born
    probabilities of the 0/1 diagonals ``verify`` checks."""
    state = copies(psi_general(spec), n)
    povm, counts = block_measurement_povm(spec, n)
    rows, block_of = block_outcomes(spec, n)
    assert np.array_equal(rows, counts)
    assert np.array_equal(projective_probabilities(state, 0, block_of),
                          outcome_probabilities(state, povm))


# -- sampling ------------------------------------------------------------------

def test_run_extraction_explicit_statistics():
    spec = psi_spec(0.6, 0.8)
    trials = 4000
    report, transcript = run_extraction(spec, 2, trials, seed=11)
    assert report.trials == trials and len(transcript.steps) == trials
    se = math.sqrt(N2_EPR_VAR / trials)
    assert abs(report.epr_per_copy[(1, 2)] - N2_EPR) < 4 * se
    se = math.sqrt(N2_GHZ_VAR / trials)
    assert abs(report.ghz_per_copy - N2_GHZ) < 4 * se
    # sample variances near the exact ones
    assert report.epr_variance[(1, 2)] == pytest.approx(N2_EPR_VAR, rel=0.2)


def test_run_extraction_deterministic():
    spec = psi_spec(0.6, 0.8)
    r1, t1 = run_extraction(spec, 3, 200, seed=5)
    r2, t2 = run_extraction(spec, 3, 200, seed=5)
    assert r1 == r2
    assert t1.to_text() == t2.to_text()
    r3, _ = run_extraction(spec, 3, 200, seed=6)
    assert r3 != r1


def test_run_extraction_n1_outcomes():
    report, transcript = run_extraction(psi_spec(0.6, 0.8), 1, 500, seed=2)
    # outcome index follows the lexicographic count enumeration: (0,1), (1,0)
    probs = dict(zip(transcript.outcomes, transcript.probabilities))
    assert probs == pytest.approx({0: 0.64, 1: 0.36})
    outcomes = set(transcript.outcomes)
    assert outcomes == {0, 1}


def test_run_extraction_verified_blocks():
    # opt-in post-state verification walks every block of the 2-copy state
    report, _ = run_extraction(psi_spec(0.6, 0.8), 2, 10, seed=1,
                               verify_blocks=True)
    assert report.n_copies == 2


@pytest.mark.parametrize("spec, n", [
    (PSI_PRIME, 3), (random_spec(3, np.random.default_rng(8)), 2),
    # two components on all three parties: not the seed's layout
    (random_spec(3, np.random.default_rng(126)), 2),
])
def test_run_extraction_verifies_every_spec(spec, n):
    report, _ = run_extraction(spec, n, 10, seed=1, verify_blocks=True)
    assert report.n_copies == n


def _measured_blocks(spec, n):
    state = copies(psi_general(spec), n)
    counts, block_of = block_outcomes(spec, n)
    return (state, block_of, counts, log2_multinomial(counts),
            projective_probabilities(state, 0, block_of))


def test_verify_blocks_refuses_a_wrong_probability():
    state, block_of, counts, lmult, probs = _measured_blocks(PSI_PRIME, 3)
    _verify_blocks(PSI_PRIME, state, block_of, counts, lmult, probs)
    probs[7] += 1e-11
    with pytest.raises(AssertionError, match=r"^block \(\d+, \d+, \d+, \d+\) "
                       "has probability"):
        _verify_blocks(PSI_PRIME, state, block_of, counts, lmult, probs)


def test_verify_blocks_refuses_unequal_magnitudes():
    """Two terms of one block exchange weight: the block's probability
    stays, its amplitudes no longer share one magnitude."""
    state, block_of, counts, lmult, _ = _measured_blocks(PSI_PRIME, 3)
    outcome = block_of[state.labels[:, 0]]
    j = int(np.argmax(np.bincount(outcome)))
    a, b = np.flatnonzero(outcome == j)[:2]
    amps = state.amps.copy()
    r = math.hypot(abs(amps[a]), abs(amps[b]))
    amps[a], amps[b] = r * math.cos(0.7), r * math.sin(0.7)
    bent = PureState(state.local_dims, state.labels, amps)
    probs = projective_probabilities(bent, 0, block_of)
    with pytest.raises(AssertionError, match="unequal magnitude"):
        _verify_blocks(PSI_PRIME, bent, block_of, counts, lmult, probs)


@pytest.mark.parametrize("name, stub, message", [
    # each post-measurement block compared with a different block
    ("block_state", lambda n, k: block_state(n, (k + 1) % (n + 1)),
     r"^post-measurement state of block \(2,\d\) is not the canonical"),
    ("verify_block_equivalence", lambda n, k: False,
     r"^block \(2,\d\) failed the canonical pair x GHZ equivalence$"),
])
def test_verify_blocks_negative_controls(monkeypatch, name, stub, message):
    state = copies(psi(0.6, 0.8), 2)
    checked_decompose(psi_spec(0.6, 0.8), 2, state)
    monkeypatch.setattr(blocks, name, stub)
    with pytest.raises(AssertionError, match=message):
        checked_decompose(psi_spec(0.6, 0.8), 2, state)


def test_explicit_extraction_builds_no_povm(monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a POVM was built")

    monkeypatch.setattr(locc, "Povm", unbuilt)
    monkeypatch.setattr(locc, "diagonal_operator", unbuilt)
    report, transcript = run_extraction(PSI_PRIME, 3, 50, seed=1,
                                        verify_blocks=True)
    assert report.trials == 50 and set(transcript.parties) == {0}


def test_run_extraction_analytic_matches_expected():
    spec = psi_spec(HALF, HALF)
    n = 10**4
    report, transcript = run_extraction(spec, n, 64, seed=9, analytic=True)
    expect = expected_yields(spec, n)
    se = math.sqrt(expect.ghz_variance / 64)
    assert abs(report.ghz_per_copy - expect.ghz_per_copy) < 4 * se
    assert abs(report.epr_per_copy[(1, 2)] - 0.5) < 4 * math.sqrt(
        expect.epr_variance[(1, 2)] / 64)
    # transcript carries the block probability of each draw
    assert all(0.0 < p <= 1.0 for p in transcript.probabilities)


def test_run_extraction_analytic_deterministic():
    spec = psi_prime_spec(0.5, 0.5, 0.5, 0.5)
    r1, t1 = run_extraction(spec, 100, 32, seed=4, analytic=True)
    r2, t2 = run_extraction(spec, 100, 32, seed=4, analytic=True)
    assert r1 == r2 and t1.to_text() == t2.to_text()


def test_run_extraction_validation():
    with pytest.raises(ValueError):
        run_extraction(psi_spec(0.6, 0.8), 2, 0, seed=0)
    with pytest.raises(BudgetError):
        run_extraction(psi_spec(0.6, 0.8), 16, 1, seed=0)   # 3^16 support


@pytest.mark.parametrize("spec, n, message", [
    # 4**11 terms fit; party A's 4**11 labels do not
    (StateSpec(3, (CanonicalComponent(math.sqrt(0.5), (0, 1)),
                   CanonicalComponent(math.sqrt(0.5), (0, 2)))), 11,
     "^block measurement of 11 copies on party 0 needs 4194304 labels, "
     "budget is 4000000 labels$"),
    (psi_spec(0.6, 0.8), 15, "^the 15-copy power of a 3-term state needs "
     "14348907 terms, budget is 10000000 terms$"),
])
def test_explicit_extraction_refuses_before_building(monkeypatch, spec, n,
                                                     message):
    def unbuilt(*args):
        raise AssertionError("the N-copy state was built")

    monkeypatch.setattr(extraction, "copies", unbuilt)
    monkeypatch.setattr(extraction, "psi_general", unbuilt)
    with pytest.raises(BudgetError, match=message):
        run_extraction(spec, n, 1, seed=1)


def test_explicit_draws_equal_the_per_trial_generator_loop():
    """All trials drawn at once pick what one Generator per trial and
    ``locc._draw`` pick, kept here as the oracle, at a seed of several
    words and 2**16 + 1 trials (past the kernel's chunk edge)."""
    spec = psi_prime_spec(0.6, 0.5, 0.4, 0.4795831523312719)
    n, trials, seed = 3, 2**16 + 1, 2**64 + 7
    povm, _ = block_measurement_povm(spec, n)
    probs = outcome_probabilities(copies(psi_general(spec), n), povm)
    cum = np.cumsum(probs)
    want = [_draw(cum, as_generator(ss).random())
            for ss in trial_seeds(seed, trials)]
    _, transcript = run_extraction(spec, n, trials, seed)
    assert transcript.outcomes == want
    assert transcript.probabilities == [float(probs[o]) for o in want]
    assert transcript.steps == [f"trial{t}" for t in range(trials)]


# one-word and multi-word root seeds (SeedSequence splits a seed into
# 32-bit words, and a pool of 4 mixes more than 4 in afterwards)
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**160))


def _same_draws(seed, t, child):
    """Trial t's sub-seed formed alone draws what ``child`` draws."""
    csq = (0.36, 0.25, 0.16, 0.23)
    return np.array_equal(
        as_generator(trial_seed(seed, t)).multinomial(10**6, csq),
        as_generator(child).multinomial(10**6, csq))


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, t=st.integers(0, 99))
def test_trial_seed_is_the_spawned_child(seed, t):
    assert _same_draws(seed, t, trial_seeds(seed, t + 1)[t])


@pytest.mark.parametrize("seed", [7, 2**128 + 5])
def test_trial_seed_is_the_spawned_child_past_2_16(seed):
    """The same on both sides of 2**16, from one spawn of each seed."""
    children = trial_seeds(seed, 2**16 + 2)
    assert all(_same_draws(seed, t, children[t])
               for t in (2**16 - 2, 2**16 - 1, 2**16, 2**16 + 1))


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, trials=st.integers(1, 40),
       n=st.sampled_from([1, 5, 300, 10**9]))
def test_analytic_counts_equal_the_spawned_generator_loop(seed, trials, n):
    """Analytic extraction seeds each trial as it draws it, and evaluates
    each distinct drawn row once: its outcomes, probabilities and means
    are those of one Generator per spawned child (``trial_seeds``), the
    oracle, drawn row by row."""
    spec = psi_prime_spec(0.6, 0.5, 0.4, 0.4795831523312719)
    csq = spec.squared_coefficients()
    counts = [tuple(as_generator(ss).multinomial(n, csq).tolist())
              for ss in trial_seeds(seed, trials)]
    report, transcript = run_extraction(spec, n, trials, seed, analytic=True)
    assert transcript.outcomes == [_flat_outcome(c) for c in counts]
    assert transcript.probabilities == [2.0 ** block_probability(n, c, csq)
                                        for c in counts]
    yields = [block_yields(c, spec) for c in counts]
    assert report.ghz_per_copy == float(
        (np.array([y[FULL3] for y in yields]) / n).mean())
    for s, mean in report.epr_per_copy.items():
        assert mean == float((np.array([y[s] for y in yields]) / n).mean())


@pytest.mark.parametrize("analytic", [False, True])
def test_trial_budget_is_checked_before_any_seed(monkeypatch, analytic):
    """10**6 trials pass the check and reach the seeds (stubbed to stop
    there); one more is refused before any seed is formed."""
    class Reached(Exception):
        pass

    def seeds(*args):
        raise Reached

    monkeypatch.setattr(locc, "trial_seed", seeds)
    monkeypatch.setattr(locc, "stream_uniforms", seeds)
    spec = psi_spec(0.6, 0.8)
    with pytest.raises(Reached):
        run_extraction(spec, 2, 10**6, seed=1, analytic=analytic)
    with pytest.raises(BudgetError, match="^extraction needs 1000001 trials, "
                       "budget is 1000000 trials$"):
        run_extraction(spec, 2, 10**6 + 1, seed=1, analytic=analytic)


# -- entropy consistency -------------------------------------------------------

def test_entropy_consistency_named_states():
    assert entropy_consistency(psi_spec(0.6, 0.8))
    assert entropy_consistency(psi_prime_spec(0.5, 0.5, 0.5, 0.5))
    assert entropy_consistency(psi_prime_spec(*np.sqrt((0.1, 0.2, 0.3, 0.4))))


def test_entropy_consistency_random_specs():
    rng = np.random.default_rng(12)
    for _ in range(4):
        assert entropy_consistency(random_spec(3, rng))
        assert entropy_consistency(random_spec(4, rng))


def test_entropy_consistency_counts_crossing_subsets():
    # a hand-built spec where one subset must count on some cuts only
    spec = StateSpec(3, (
        CanonicalComponent(math.sqrt(0.5), (0,)),
        CanonicalComponent(math.sqrt(0.3), (1, 2)),
        CanonicalComponent(math.sqrt(0.2), (0, 1), level=3),
    ))
    assert entropy_consistency(spec)
    r = asymptotic_rates(spec)
    assert r.per_subset[(1, 2)] == pytest.approx(0.3)
    assert r.per_subset[(0, 1)] == pytest.approx(0.2 * math.log2(3))
    assert r.full == pytest.approx(entropy((0.5, 0.3, 0.2)))


# -- transcript outcome ids ----------------------------------------------------

def _rank_by_loop(counts):
    """The per-step summation loop that the closed form replaced."""
    rank, remaining = 0, sum(counts)
    for pos, k in enumerate(counts[:-1]):
        left = len(counts) - pos - 1
        for smaller in range(k):
            rank += math.comb(remaining - smaller + left - 1, left - 1)
        remaining -= k
    return rank


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_flat_outcome_is_the_enumeration_position(m):
    for n in range(11):
        for position, counts in enumerate(block_counts_oracle(n, m)):
            assert _flat_outcome(counts) == position


@pytest.mark.parametrize("counts", [(360_012, 639_988),
                                    (250_113, 249_870, 250_001, 250_016)])
def test_flat_outcome_matches_the_loop_at_large_n(counts):
    assert _flat_outcome(counts) == _rank_by_loop(counts)


def test_analytic_stderr_against_mpmath():
    # at N = 1e6 the yields are about N units each and vary by about
    # sqrt(N): the variances are formed from count differences, so they
    # hold to far more digits than the 1e-12 the yields themselves allow
    mpmath = pytest.importorskip("mpmath")
    n, trials, seed = 10**6, 20, 1
    spec = psi_prime_spec(0.6, 0.5, 0.4, math.sqrt(1 - 0.36 - 0.25 - 0.16))
    report, _ = run_extraction(spec, n, trials, seed, analytic=True)
    counts = [as_generator(ss).multinomial(n, spec.squared_coefficients())
              for ss in trial_seeds(seed, trials)]
    with mpmath.workprec(200):
        def variance(ys):
            mean = sum(ys) / trials
            return float(sum((y - mean) ** 2 for y in ys) / (trials - 1))

        lf = [[mpmath.loggamma(int(k) + 1) / mpmath.log(2) for k in row]
              for row in counts]
        ghz = [(mpmath.loggamma(n + 1) / mpmath.log(2) - sum(r)) / n
               for r in lf]
        assert report.ghz_variance == pytest.approx(variance(ghz), rel=1e-14,
                                                    abs=0.0)
        for comp, i in zip(spec.components[1:], range(1, 4)):
            epr = [mpmath.mpf(int(row[i])) / n for row in counts]
            assert report.epr_variance[comp.support] == pytest.approx(
                variance(epr), rel=4e-16, abs=0.0)

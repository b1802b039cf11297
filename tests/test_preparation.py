"""Windowed targets, the two measurement primitives, and the full protocol."""

import math

import numpy as np
import pytest
from conftest import inner, prepare_oracle, terms
from hypothesis import given, settings
from hypothesis import strategies as st

from eprghz import locc, preparation
from eprghz.blocks import block_probability
from eprghz.canonical import copies, level_ghz, psi, psi_spec
from eprghz.extraction import block_measurement_povm
from eprghz.hilbert import (
    _BUDGETS, BudgetError, PureState, amplitude_distance, relabel,
    states_equal,
)
from eprghz.locc import (
    ImpossibleOutcomeError, apply_element, check_completeness,
    diagonal_operator, outcome_probabilities, permutation_operator,
    trial_seeds,
)
from eprghz.preparation import (
    ResourceCount, Window, _check_terms, _read_window, _weighting_stage,
    build_target, fidelity, fidelity_bound, ghz_weighting_povm,
    prepare_approx, prepare_exact_n2, resource_count, row_shorten_povm,
    stage_count, target_window,
)

HALF = math.sqrt(0.5)

# frozen N=100, c0^2=0.5 window values (independent summation oracle)
F_100 = 0.9982100696085131
BOUND_100 = 0.9984744895658095
GHZ_100 = 101.30291347326622


# -- window arithmetic ---------------------------------------------------------

def test_window_validation():
    """A Window is its bare pair; the one window check refuses a reversed
    pair or one outside 0..n in either form."""
    assert Window(3, 5) == (3, 5)
    assert _read_window(4, [1, 2]) == (4, Window(1, 2))
    with pytest.raises(ValueError, match=r"^window \(3, 2\) outside 0\.\.4$"):
        _read_window(4, Window(3, 2))
    with pytest.raises(ValueError, match=r"^window \(0, 5\) outside 0\.\.4$"):
        _read_window(4, (0, 5))


def test_target_window_frozen():
    w = target_window(100, 0.5)
    assert (w.k_minus, w.k_plus) == (35, 65)
    assert target_window(4, 0.5) == Window(0, 4)


def _bits(result):
    """A reader's result in a form that compares bit for bit."""
    if isinstance(result, PureState):
        return (result.local_dims, result.labels.tobytes(),
                result.amps.tobytes())
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
    return result


WINDOW_READERS = {
    "fidelity": lambda n, w: fidelity(n, 0.36, w),
    "resource_count": lambda n, w: resource_count(n, w),
    "stage_count": lambda n, w: stage_count(n, w),
    "build_target": lambda n, w: build_target(n, 0.6, 0.8, w),
    "prepare_approx": lambda n, w: prepare_approx(n, 0.6, 0.8, seed=1,
                                                  window=w),
}


@pytest.mark.parametrize("read", WINDOW_READERS.values(), ids=WINDOW_READERS)
def test_window_readers_take_one_form(read):
    """A Window and its plain pair are one value to every reader, and so
    are numpy integers; a reversed pair or one outside 0..n is refused by
    the one window check."""
    want = _bits(read(3, Window(1, 2)))
    assert _bits(read(3, (1, 2))) == want
    assert _bits(read(np.int64(3), np.array([1, 2]))) == want
    for k_minus, k_plus in ((2, 1), (0, 4), (-1, 2)):
        with pytest.raises(ValueError, match=rf"^window \({k_minus}, "
                           rf"{k_plus}\) outside 0\.\.3$"):
            read(3, (k_minus, k_plus))


@pytest.mark.parametrize("read", WINDOW_READERS.values(), ids=WINDOW_READERS)
@pytest.mark.parametrize("n, window, message", [
    (3, (0.9, 2.7), "^window bound must be an integer, got 0.9$"),
    (3.9, (0, 3.5), "^n must be an integer, got 3.9$"),
    (True, (0, True), "^n must be an integer, got True$"),
    (3, (0, True), "^window bound must be an integer, got True$"),
    ("3", (0, 3), "^n must be an integer, got '3'$"),
    (0, (0, 0), "^need n >= 1, got 0$"),
], ids=["fractional-window", "fractional-n", "bool-n", "bool-window",
        "string-n", "no-copies"])
def test_window_readers_refuse_non_integers(read, n, window, message):
    """n and the window bounds are read as integers, n at least 1: a
    bool, float or string is refused, not truncated."""
    with pytest.raises(ValueError, match=message):
        read(n, window)


def _nothing_built(*args, **kwargs):
    raise AssertionError("a state or bulk was formed before the check")


@pytest.mark.parametrize("call, message", [
    (lambda: fidelity(10, 1.5, (0, 10)), r"^c0_sq 1\.5 outside \[0, 1\]$"),
    (lambda: fidelity(10, -0.5, (0, 10)), r"^c0_sq -0\.5 outside \[0, 1\]$"),
    (lambda: fidelity(10, math.nan, (0, 10)), r"^c0_sq nan outside \[0, 1\]$"),
    (lambda: build_target(3, math.nan, 0.8, (0, 3)),
     "^squared coefficients sum to nan, not 1$"),
    (lambda: build_target(3, -0.6, 0.8, (0, 3)),
     r"^coefficients must be non-negative, got \(-0\.6, 0\.8\)$"),
    (lambda: build_target(3, 0.6, 0.9, (0, 3)),
     "^squared coefficients sum to 1.17"),
    (lambda: prepare_approx(3, math.nan, 0.8, window=(0, 3)),
     "^squared coefficients sum to nan, not 1$"),
], ids=["fidelity-above-1", "fidelity-negative", "fidelity-nan",
        "target-nan", "target-negative", "target-off-norm", "prepare-nan"])
def test_bad_amplitudes_are_refused_before_any_work(monkeypatch, call,
                                                    message):
    """c0, c1 go through the seed state's unit rule and c0^2 through one
    [0, 1] check, before any state or binomial bulk exists."""
    for name in ("_binomial_bulk_chunks", "block_labels", "_weighting_stage",
                 "PureState"):
        monkeypatch.setattr(preparation, name, _nothing_built)
    with pytest.raises(ValueError, match=message):
        call()


def test_target_window_trims_dead_blocks():
    assert (target_window(3, 0.0).k_minus, target_window(3, 0.0).k_plus) == \
        (0, 0)
    assert (target_window(3, 1.0).k_minus, target_window(3, 1.0).k_plus) == \
        (3, 3)


def test_target_window_validation():
    with pytest.raises(ValueError, match="^need n >= 1, got 0$"):
        target_window(0, 0.5)
    with pytest.raises(ValueError, match="^n must be an integer, got 9.5$"):
        target_window(9.5, 0.5)
    with pytest.raises(ValueError):
        target_window(10, 1.5)
    with pytest.raises(ValueError):
        target_window(10, 0.5, alpha=0.0)
    with pytest.raises(ValueError):
        target_window(10, 0.5, beta=0.5)
    with pytest.raises(ValueError):
        target_window(10, 0.5, beta=1.0)


# -- fidelity ------------------------------------------------------------------

def test_fidelity_full_window_is_one():
    assert fidelity(6, 0.36, (0, 6)) == 1.0


def test_fidelity_frozen_values():
    assert fidelity(100, 0.5, (35, 65)) == pytest.approx(F_100, abs=1e-12)
    assert fidelity(4, 0.5, (1, 3)) == pytest.approx(0.875, abs=1e-12)


def test_fidelity_monotone_over_decades():
    vals = [fidelity(n, 0.5, target_window(n, 0.5))
            for n in (100, 10**3, 10**4, 10**5, 10**6)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1 - 1e-3


def test_fidelity_edge_coefficients():
    assert fidelity(5, 0.0, (0, 0)) == 1.0
    assert fidelity(5, 0.0, (1, 3)) == 0.0
    assert fidelity(5, 1.0, (2, 5)) == 1.0
    # a certain outcome is its own binomial bulk: 1 where the window holds
    # it, else 0, up to N = 2**53; above it every closed form refuses
    for n in (1, 2, 5, 1000, 2**31, 2**53):
        for c0_sq in (0.0, -0.0, 1.0):
            certain = n if c0_sq == 1.0 else 0
            for window in ((0, 0), (0, n), (n, n), (1, n), (0, n - 1),
                           (n // 3, n // 2), (n // 2, n)):
                want = 1.0 if window[0] <= certain <= window[1] else 0.0
                assert fidelity(n, c0_sq, window) == want
    with pytest.raises(ValueError):
        fidelity(2**53 + 1, 0.0, (0, 0))
    with pytest.raises(ValueError):
        fidelity(5, 0.5, (2, 7))


def test_fidelity_bound():
    assert fidelity_bound(100) == pytest.approx(BOUND_100, abs=1e-12)
    bounds = [fidelity_bound(n) for n in (10**2, 10**4, 10**6)]
    assert all(b > a for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] > 1 - 1e-9


# -- resource counting ---------------------------------------------------------

def test_resource_count_frozen():
    rc = resource_count(100, (35, 65))
    assert rc.epr_per_subset == {(1, 2): 65.0}
    assert rc.ghz == pytest.approx(GHZ_100, abs=1e-9)


def test_resource_count_product_state_is_free():
    rc = resource_count(7, (7, 7))
    assert rc.epr_per_subset == {(1, 2): 0.0}
    assert rc.ghz == 0.0


def test_resource_count_window_off_center():
    # window entirely above N/2: the peak is the window's lower edge
    rc = resource_count(10, (7, 9))
    assert rc.ghz == pytest.approx(math.log2(3) + math.log2(math.comb(10, 7)))
    rc = resource_count(10, (0, 2))
    assert rc.ghz == pytest.approx(math.log2(3) + math.log2(math.comb(10, 2)))


def test_resource_count_accepts_window_object():
    w = target_window(100, 0.5)
    assert resource_count(100, w) == resource_count(100, (35, 65))


# -- explicit windowed targets ---------------------------------------------------

def test_build_target_full_window_is_power():
    tgt = build_target(3, 0.6, 0.8, (0, 3))
    assert states_equal(tgt, copies(psi(0.6, 0.8), 3))


def test_build_target_truncation_overlap():
    tgt = build_target(4, HALF, HALF, (1, 3))
    power = copies(psi(HALF, HALF), 4)
    assert abs(inner(tgt, power)) ** 2 == pytest.approx(0.875, abs=1e-12)
    assert tgt.is_normalized()


def test_build_target_errors():
    with pytest.raises(BudgetError):
        build_target(30, HALF, HALF, (0, 30))
    with pytest.raises(ValueError):
        build_target(3, 1.0, 0.0, (0, 0))   # window holds no amplitude


# -- weighting POVM --------------------------------------------------------------

def corrected_outcome_states(weights):
    """Apply every weighting outcome on the uniform state, then its
    correction on all three parties."""
    t = len(weights)
    state = level_ghz(t, (0, 1, 2))
    povm, corrections = ghz_weighting_povm(weights)
    assert check_completeness(povm)
    outs = []
    for j, el in enumerate(povm.elements):
        post, prob = apply_element(state, el)
        assert prob == pytest.approx(1.0 / t, abs=1e-9)
        old, new = corrections[j]
        outs.append(relabel(post, *permutation_operator((0, 1, 2), old, new,
                                                         t)))
    return outs


def test_weighting_povm_four_weight_example():
    outs = corrected_outcome_states(np.array([0.64, 0.48, 0.48, 0.36]))
    want = PureState((4, 4, 4), [(i, i, i) for i in range(4)],
                     [0.64, 0.48, 0.48, 0.36])
    for post in outs:
        assert states_equal(post, want)


@given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=12),
       st.booleans())
@settings(max_examples=25, deadline=None)
def test_weighting_povm_outcomes_agree(raw, reverse):
    w = np.array(raw[::-1] if reverse else raw)
    w = w / np.linalg.norm(w)
    outs = corrected_outcome_states(w)
    for post in outs[1:]:
        assert states_equal(post, outs[0])


@pytest.mark.parametrize("t", [1, 2, 16, 64])
def test_weighting_povm_large_t(t):
    rng = np.random.default_rng(t)
    w = rng.random(t) + 0.1
    outs = corrected_outcome_states(w / np.linalg.norm(w))
    assert len(outs) == t
    assert states_equal(outs[-1], outs[0])


def test_weighting_povm_with_zero_weights():
    # a one-hot weight vector turns the GHZ into a product state
    outs = corrected_outcome_states(np.array([1.0, 0.0, 0.0, 0.0]))
    want = PureState((4, 4, 4), [(0, 0, 0)], [1.0])
    for post in outs:
        assert states_equal(post, want)


def test_weighting_povm_validation():
    with pytest.raises(ValueError):
        ghz_weighting_povm([0.6, 0.6])        # squared sum != 1
    with pytest.raises(ValueError):
        ghz_weighting_povm([-0.6, 0.8])
    with pytest.raises(ValueError):
        ghz_weighting_povm([])


def test_weighting_povm_budget():
    # t*t diagonal entries count against the explicit budget before any
    # element is built; prepare -N 8 needs t = 247
    povm, _ = ghz_weighting_povm(np.full(247, 1 / math.sqrt(247)))
    assert len(povm.elements) == 247
    t = math.isqrt(_BUDGETS["explicit terms"]) + 1
    assert t == 3163
    with pytest.raises(BudgetError, match=(
            "^weighting POVM of 3163 rows x 3163 diagonal entries needs "
            "10004569 terms, budget is 10000000 terms$")):
        ghz_weighting_povm(np.full(t, 1 / math.sqrt(t)))


# -- row shortening ---------------------------------------------------------------

def weighted_row_state(row_weights, length, dim=None):
    """Uniform-within-row state on parties (1, 2) with one label set per row."""
    amps = {}
    for r, w in enumerate(row_weights):
        for x in range(length):
            l = r * length + x
            amps[(0, l, l)] = w / math.sqrt(length)
    d = dim or length * len(row_weights)
    return PureState((1, d, d), list(amps), list(amps.values()))


def row_masses(state, rows, party=1):
    out = []
    for labels, _ in rows:
        out.append(sum(abs(a) ** 2 for l, a in terms(state).items()
                       if l[party] in set(labels)))
    return out


@given(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4),
       st.sampled_from([1, 2, 4]))
@settings(max_examples=25, deadline=None)
def test_row_shortening_preserves_weights(raw, keep):
    length = 4
    w = np.sqrt(np.array(raw) / np.sum(raw))
    rows = [(list(range(r * length, (r + 1) * length)), keep)
            for r in range(len(w))]
    state = weighted_row_state(w, length)
    masses = row_masses(state, rows)
    for labels, keep in rows:
        povm, corrections = row_shorten_povm(labels, keep,
                                             dim=length * len(w))
        assert check_completeness(povm)
        probs = outcome_probabilities(state, povm)
        assert probs == pytest.approx(np.full(length // keep, keep / length),
                                      abs=1e-9)
        # take outcome 1 when there is one, else 0: exercises the swap
        o = min(1, len(povm.elements) - 1)
        state, _ = apply_element(state, povm.elements[o])
        state = relabel(state, *permutation_operator(
            (1, 2), *corrections[o], state.local_dims[1]))
        assert row_masses(state, rows) == pytest.approx(masses, abs=1e-9)


def test_row_shortening_outcome_counts():
    # length 4 rows: keep 1 gives 4 outcomes at 1/4, keep 2 gives 2 at 1/2
    first, _ = row_shorten_povm([0, 1, 2, 3], 1, dim=8)
    second, _ = row_shorten_povm([4, 5, 6, 7], 2, dim=8)
    assert len(first.elements) == 4
    assert len(second.elements) == 2
    state = weighted_row_state(np.sqrt([0.5, 0.5]), 4)
    assert outcome_probabilities(state, first) == pytest.approx([0.25] * 4)
    assert outcome_probabilities(state, second) == pytest.approx([0.5] * 2)


def test_row_shortening_keep_all_is_identity(dense):
    povm, corrections = row_shorten_povm([0, 1], 2, dim=4)
    assert len(povm.elements) == 1 and len(corrections) == 1
    old, new = corrections[0]                  # an identity map
    assert np.array_equal(old, new)
    m = dense(povm.elements[0])
    assert np.allclose(m, np.eye(4))


def test_row_shortening_outcomes_converge():
    # every outcome lands on the same shortened state after its swap
    state = weighted_row_state([1.0], 4)
    povm, corrections = row_shorten_povm([0, 1, 2, 3], 2)
    landed = []
    for el, (old, new) in zip(povm.elements, corrections):
        post, _ = apply_element(state, el)
        landed.append(relabel(post, *permutation_operator((1, 2), old, new,
                                                           4)))
    assert states_equal(landed[0], landed[1])
    assert set(terms(landed[0])) == {(0, 0, 0), (0, 1, 1)}


def test_row_shortening_validation():
    with pytest.raises(ValueError):
        row_shorten_povm([0, 1, 2], 2)             # 2 !| 3
    with pytest.raises(ValueError):
        row_shorten_povm([0, 0], 1)                # repeat
    with pytest.raises(ValueError):
        row_shorten_povm([0, 5], 1, dim=4)         # outside dim
    with pytest.raises(ValueError, match="outside 0..3"):
        row_shorten_povm([-1, 0], 1, dim=4)        # -1 wraps to 3
    for keep in (1.0, True, "1"):
        with pytest.raises(ValueError, match="^keep count must be an integer"):
            row_shorten_povm([0, 1], keep)


# -- the full protocol -------------------------------------------------------------

def test_prepare_exact_n2_every_branch():
    target = copies(psi(0.6, 0.8), 2)
    for ss in trial_seeds(3, 25):
        state, transcript, resources = prepare_exact_n2(0.6, 0.8, seed=ss)
        assert amplitude_distance(state, target) < 1e-9
        assert resources == ResourceCount({(1, 2): 2.0}, 2.0)


@pytest.mark.parametrize("n, seed", [(2, 0), (4, 7), (5, 2**64 + 3)])
def test_prepare_draws_the_same_stream_from_every_source(n, seed):
    """One uniform per stage: an int seed's stream computed in-package, a
    Generator of the same seed, and the ``stage_count`` doubles passed in
    give the same branch."""
    window = target_window(n, 0.36) if n > 2 else (0, 2)
    draws = np.random.default_rng(seed).random(stage_count(n, window))
    runs = [prepare_approx(n, 0.6, 0.8, seed=rng, window=window)
            for rng in (seed, np.random.default_rng(seed), draws)]
    for state, transcript, _ in runs:
        assert len(transcript.steps) == len(draws)
        assert transcript == runs[0][1]
        assert amplitude_distance(state, runs[0][0]) == 0.0
    with pytest.raises(ValueError, match="draws"):
        prepare_approx(n, 0.6, 0.8, seed=draws[1:], window=window)


def test_prepare_exact_n2_transcript_shape():
    state, transcript, _ = prepare_exact_n2(0.6, 0.8, seed=1)
    assert transcript.steps == ["weighting", "shorten_row0",
                                "shorten_row1", "shorten_row2",
                                "shorten_row3"]
    # 1/4 weighting, rows shortened by factors (1, 2, 2, 4)
    assert math.prod(transcript.probabilities) == pytest.approx(1 / 64)


def test_prepare_exact_n2_needs_normalized_amplitudes():
    with pytest.raises(ValueError):
        prepare_exact_n2(0.7, 0.8)


def test_prepare_approx_full_window_n3():
    state, transcript, resources = prepare_approx(3, 0.6, 0.8, seed=2,
                                                  window=Window(0, 3))
    assert amplitude_distance(state, copies(psi(0.6, 0.8), 3)) < 1e-9
    assert resources.epr_per_subset == {(1, 2): 3.0}
    assert resources.ghz == pytest.approx(3.0)   # 2^3 rows


def test_prepare_approx_default_window_n4():
    state, _, resources = prepare_approx(4, 0.6, 0.8, seed=8)
    w = target_window(4, 0.36)
    assert (w.k_minus, w.k_plus) == (0, 3)
    assert amplitude_distance(state, build_target(4, 0.6, 0.8, w)) < 1e-9
    # 15 surviving rows; the planning bound must dominate the realized count
    assert resources.ghz == pytest.approx(math.log2(15))
    assert resources.ghz <= resource_count(4, w).ghz + 1e-12
    assert amplitude_distance(state, copies(psi(0.6, 0.8), 4)) == \
        pytest.approx(0.1296, abs=1e-9)


def test_prepare_approx_windowed_fidelity():
    state, _, _ = prepare_approx(4, HALF, HALF, seed=5, window=Window(1, 3))
    power = copies(psi(HALF, HALF), 4)
    assert abs(inner(state, power)) ** 2 == pytest.approx(0.875, abs=1e-9)


def test_prepare_approx_pair_only():
    state, _, resources = prepare_approx(3, 0.0, 1.0, seed=0)
    assert amplitude_distance(state, copies(psi(0.0, 1.0), 3)) < 1e-9
    assert resources == ResourceCount({(1, 2): 3.0}, 0.0)


def test_prepare_approx_budget():
    with pytest.raises(BudgetError):
        prepare_approx(25, 0.0, 1.0, seed=0, window=Window(0, 0))


def test_window_budgets_keep_the_exact_decision():
    """The log2 pre-check refuses only what the exact count refuses, on
    every window whose labels fit in int64 (3**n - 3**k_minus)."""
    for n in range(1, 41):
        for k_minus in range(n + 1):
            if 3**n - 3**k_minus > 2**63 - 1:
                continue
            for k_plus in range(k_minus, n + 1):
                for what, shift in (("windowed target", lambda k: n - k),
                                    ("protocol", lambda k: n - k_minus)):
                    exact = sum(math.comb(n, k) * 2**shift(k)
                                for k in range(k_minus, k_plus + 1))
                    if exact > _BUDGETS["explicit terms"]:
                        with pytest.raises(BudgetError):
                            _check_terms(n, (k_minus, k_plus), what)
                    else:
                        _check_terms(n, (k_minus, k_plus), what)


def test_huge_windows_are_refused_from_an_estimate():
    n = 10**12
    for call in (lambda: build_target(n, 0.6, 0.8, (0, n)),
                 lambda: prepare_approx(n, 0.6, 0.8, window=(0, n))):
        with pytest.raises(BudgetError, match=r"needs at least 2\*\*\S+ terms, "
                           r"budget is 10000000 terms$"):
            call()


def _same_branch(got, want):
    """A ``prepare_approx`` result and the oracle's (state, transcript),
    compared bit for bit."""
    (state, transcript, _), (oracle_state, oracle_transcript) = got, want
    assert transcript == oracle_transcript
    assert state.local_dims == oracle_state.local_dims
    assert state.labels.tobytes() == oracle_state.labels.tobytes()
    assert state.amps.tobytes() == oracle_state.amps.tobytes()


C0_SQ = st.one_of(st.floats(1e-6, 1e-3), st.floats(0.001, 0.999),
                  st.floats(0.999, 1.0 - 1e-9), st.sampled_from([0.0, 1.0]))


@pytest.mark.parametrize("n", range(2, 8))
@given(c0_sq=C0_SQ, seed=st.integers(0, 2**32),
       shape=st.sampled_from(["default", "full", "alpha-beta"]),
       alpha=st.floats(0.3, 3.0), beta=st.floats(0.51, 0.99))
@settings(max_examples=8, deadline=None)
def test_branch_matches_the_term_by_term_oracle(n, c0_sq, seed, shape, alpha,
                                                beta):
    """The row-held branch lands on the oracle's state and transcript, bit
    for bit, for windows from --alpha/--beta, the default and the full
    one."""
    c0, c1 = math.sqrt(c0_sq), math.sqrt(1.0 - c0_sq)
    if shape == "full":
        window = (0, n)
    else:
        try:
            window = (target_window(n, c0_sq) if shape == "default"
                      else target_window(n, c0_sq, alpha, beta))
        except ValueError:
            return   # the window holds no block index
    _same_branch(prepare_approx(n, c0, c1, seed=seed, window=window),
                 prepare_oracle(n, c0, c1, seed, window))


@pytest.mark.parametrize("n, c0, c1, seed, window", [
    (8, 0.6, 0.8, 3, None),
    (8, math.sqrt(0.9), math.sqrt(0.1), 1, None),
    # the smallest rows drop whole after the weighting (N = 2) and after
    # the pairs are attached (N = 3): prepare --psi 0.000001 1 -N 2 and
    # --psi 0.0000012 1 -N 3 --alpha 2, seed 1
    (2, 0.000001, 1.0, 1, (0, 2)),
    (3, 0.0000012, 1.0, 1, (0, 3)),
], ids=["N8", "N8-high-c0", "prune-weighting", "prune-pairs"])
def test_fixed_branches_match_the_oracle(n, c0, c1, seed, window):
    _same_branch(prepare_approx(n, c0, c1, seed=seed, window=window),
                 prepare_oracle(n, c0, c1, seed, window))


def test_stage_elements_are_the_expanded_povm():
    """The weighting stage's element(o), which a branch reads, is bit for
    bit the o-th element of the POVM that ``verify`` checks for
    completeness, and correction(o) its o-th correction. Every outcome of
    every shortening stage lands a branch where the oracle, applying the
    expanded ``row_shorten_povm`` element and correction, lands."""
    w = np.random.default_rng(6).random(7)
    w /= np.linalg.norm(w)
    m, element, correction = _weighting_stage(w)
    povm, corrections = ghz_weighting_povm(w)
    assert check_completeness(povm)
    assert len(povm.elements) == len(corrections) == m
    for o in range(m):
        built, want = element(o), povm.elements[o]
        assert built.party == want.party
        assert built.weights.dtype == want.weights.dtype
        assert built.weights.tobytes() == want.weights.tobytes()
        for got, expect in zip(correction(o), corrections[o]):
            assert np.array_equal(got, expect)
    # N = 3, full window: pair_levels 8 and rows kept to 8, 4, 2 or 1
    window = (0, 3)
    for g, outcomes in enumerate([1, 2, 2, 2, 4, 4, 4, 8]):
        for o in range(outcomes):
            draws = np.full(stage_count(3, window), 0.5)
            draws[1 + g] = (o + 0.5) / outcomes
            got = prepare_approx(3, 0.6, 0.8, seed=draws, window=window)
            assert got[1].outcomes[1 + g] == o
            _same_branch(got, prepare_oracle(3, 0.6, 0.8, draws, window))


def test_protocol_draw_matches_sample():
    """A branch draws at every stage the outcome that Born sampling of the
    expanded POVM draws with the same uniform, and records the same
    probability."""
    for seed in range(60):
        c0 = math.sqrt((0.1, 0.36, 0.8)[seed % 3])
        c1 = math.sqrt(1.0 - c0 * c0)
        _same_branch(prepare_approx(3, c0, c1, seed=seed, window=(0, 3)),
                     prepare_oracle(3, c0, c1, seed, (0, 3), born=True))


def test_protocol_applies_only_the_drawn_element(monkeypatch):
    """A branch builds one element, the drawn weighting element, forms no
    POVM, and makes no Born evaluation, completeness sum or per-term
    operation over the other outcomes."""
    want = prepare_oracle(4, 0.6, 0.8, 3)
    calls = []

    def forbidden(*args, **kwargs):
        raise AssertionError("the protocol evaluated every outcome")

    def counted(*args, **kwargs):
        calls.append(args)
        return diagonal_operator(*args, **kwargs)

    monkeypatch.setattr(preparation, "diagonal_operator", counted)
    monkeypatch.setattr(preparation, "Povm", forbidden)
    for name in ("sample", "outcome_probabilities", "check_completeness",
                 "apply_element", "apply_operator", "permutation_operator"):
        monkeypatch.setattr(locc, name, forbidden)
    _same_branch(prepare_approx(4, 0.6, 0.8, seed=3), want)
    assert len(calls) == 1


def _skewed_weighting(weights):
    """A complete two-outcome stage whose law is 0.9/0.1, not 1/2."""
    t, empty = len(weights), np.zeros(0, dtype=np.int64)
    return (2, lambda o: diagonal_operator(
        0, np.full(t, math.sqrt((0.9, 0.1)[o]))), lambda o: (empty, empty))


def test_skewed_stage_law_is_an_impossible_outcome(monkeypatch):
    monkeypatch.setattr(preparation, "_weighting_stage", _skewed_weighting)
    for seed in range(5):
        with pytest.raises(ImpossibleOutcomeError, match="not 1/2"):
            prepare_approx(3, 0.6, 0.8, seed=seed)


def test_incomplete_stage_is_refused(monkeypatch):
    """A stage that drops its last outcome draws from a 1/(m-1) law that
    its elements (probability 1/m each) cannot meet."""
    def incomplete(*args, **kwargs):
        m, element, correction = _weighting_stage(*args, **kwargs)
        return m - 1, element, correction

    monkeypatch.setattr(preparation, "_weighting_stage", incomplete)
    for seed in range(5):
        with pytest.raises(ImpossibleOutcomeError, match="not 1/7$"):
            prepare_approx(3, 0.6, 0.8, seed=seed, window=(0, 3))


def test_prepare_then_extract_round_trip():
    """Block measurement on the prepared 2-copy state recovers the exact
    block probabilities."""
    state, _, _ = prepare_exact_n2(0.6, 0.8, seed=13)
    povm, indices = block_measurement_povm(psi_spec(0.6, 0.8), 2)
    probs = outcome_probabilities(state, povm)
    want = [2.0 ** block_probability(2, counts, (0.36, 0.64))
            for counts in indices.tolist()]
    assert probs == pytest.approx(want, abs=1e-12)

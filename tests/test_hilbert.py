"""Sparse state container, tensor alignment, and entropy measures."""

import ast
import dataclasses
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import inner, psi_prime, reduced_density, terms
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprghz.hilbert import (
    _BUDGETS, NORM_TOL, PRUNE_EPS, BudgetError, PureState, _check_budget,
    _has_repeats, _integer, _row_codes, _unique_rows, amplitude_distance,
    entanglement_entropy, entropy, relabel, squared_norm, states_equal,
    tensor,
)
from eprghz.canonical import copies, epr, ghz, psi

SQ2 = math.sqrt(2.0)

# frozen reference entropies for psi(0.6, 0.8) and the equal-weight
# four-component state (values pinned by an independent summation)
S_PSI_A = 0.9426831892554922
S_PSI_B = 1.5826831892554922


def random_state(rng, dims=(3, 3, 3), support=6):
    labels = set()
    while len(labels) < support:
        labels.add(tuple(int(rng.integers(d)) for d in dims))
    amps = [complex(rng.normal(), rng.normal()) for _ in labels]
    return PureState(dims, list(labels), amps).normalized()


# -- reading integers ----------------------------------------------------------

NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64)


def numpy_ints(kind):
    return st.integers(int(np.iinfo(kind).min),
                       int(np.iinfo(kind).max)).map(kind)


@given(st.one_of(st.integers(), *map(numpy_ints, NUMPY_INTS),
                 st.booleans(), st.booleans().map(np.bool_),
                 st.floats(), st.floats().map(np.float64), st.text(max_size=3)),
       st.one_of(st.none(), st.integers(-3, 3)),
       st.one_of(st.none(), st.integers(0, 6)))
@example(-1, 0, None)
@example(0, 0, None)
@example(np.uint8(1), 2, None)
@example(-1, 0, 3)
@example(0, 0, 3)
@example(2, 0, 3)
@example(3, 0, 3)
def test_integer_reads_exactly_the_integers_in_range(value, lowest, width):
    """Every int type is read as a Python int when in range; a bool, float
    or string, or an int out of range, is refused with its one message."""
    stop = None if lowest is None or width is None else lowest + width
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        message = f"x must be an integer, got {value!r}"
    elif stop is not None and not lowest <= int(value) < stop:
        message = f"x {int(value)} outside {lowest}..{stop - 1}"
    elif stop is None and lowest is not None and value < lowest:
        message = f"need x >= {lowest}, got {int(value)}"
    else:
        got = _integer(value, "x", lowest, stop)
        assert type(got) is int and got == value
        return
    with pytest.raises(ValueError) as refused:
        _integer(value, "x", lowest, stop)
    assert str(refused.value) == message


# -- construction ------------------------------------------------------------

def test_state_validation():
    with pytest.raises(ValueError):
        PureState((), [], [])
    with pytest.raises(ValueError):
        PureState((2, 0), [], [])
    # wrong arity (short, long), label out of range, negative, ragged
    for labels in ([(0,)], [(0, 0, 1)], [(0, 2)], [(1, -1)], [(0, 0), (1,)]):
        with pytest.raises(ValueError):
            PureState((2, 2), labels, np.ones(len(labels)))
    with pytest.raises(ValueError):
        PureState((2, 2), [(0, 0)], [1.0, 1.0])  # lengths differ


def test_repeated_rows_refused():
    with pytest.raises(ValueError, match=r"^label row \(0,\) repeats$"):
        PureState((2,), [(0,), (0,)], [0.6, 0.8])


@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(1, 3),
       st.sampled_from([2, 3, 2**20, 2**40]))
@example(0, 0, 2, 2)
@example(0, 2, 1, 2**40)
@settings(max_examples=200, deadline=None)
def test_repeat_refusal_matches_unique(seed, rows, cols, dim):
    """A label matrix is refused exactly when ``np.unique`` over its rows
    finds fewer rows; 2**40 on three parties passes int64, where the
    check falls back to ``_row_codes``."""
    rng = np.random.default_rng(seed)
    top = int(rng.choice([1, 2, dim]))  # a small top repeats rows often
    labels = rng.integers(0, top, size=(rows, cols), dtype=np.int64)
    amps = rng.uniform(0.5, 1.0, size=rows)
    if len(np.unique(labels, axis=0)) < rows:
        with pytest.raises(ValueError, match="repeats$"):
            PureState((dim,) * cols, labels, amps)
    else:
        s = PureState((dim,) * cols, labels, amps)
        assert np.array_equal(s.labels, labels)


def test_columns_are_read_only():
    s = psi(0.6, 0.8)
    assert [f.name for f in dataclasses.fields(PureState)] == \
        ["local_dims", "labels", "amps"]
    assert s.amplitudes is s.amps
    assert s.labels.shape == (3, 3) and s.labels.dtype == np.int64
    assert s.amps.dtype == complex
    with pytest.raises(ValueError):
        s.labels[0, 0] = 1
    with pytest.raises(ValueError):
        s.amps[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.amps = np.zeros(3, dtype=complex)


def test_support_size_without_a_dict():
    n = 10**5
    diag = np.repeat(np.arange(n, dtype=np.int64)[:, None], 2, axis=1)
    s = PureState((n, n), diag, np.full(n, n ** -0.5))
    tracemalloc.start()
    try:
        size = len(s.amplitudes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size == s.support_size == n
    assert not isinstance(s.amplitudes, dict)
    assert peak < 10_000  # a dict of 1e5 label tuples takes megabytes


def test_small_amplitudes_pruned():
    s = PureState((2, 2), [(0, 0), (1, 1)], [1.0, PRUNE_EPS / 10])
    assert s.support_size == 1
    assert (1, 1) not in terms(s)


def test_state_is_immutable():
    s = psi(0.6, 0.8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.local_dims = (2, 2, 2)


def test_norm_and_normalized():
    s = PureState((2,), [(0,), (1,)], [3.0, 4.0])
    assert s.norm() == pytest.approx(5.0)
    assert not s.is_normalized()
    n = s.normalized()
    assert n.is_normalized()
    assert terms(n)[(0,)] == pytest.approx(0.6)
    with pytest.raises(ValueError):
        PureState((2,), [], []).normalized()


def _running_squared_norm(amps):
    """Reference: a Python running sum in support order, each term squared
    by libm pow (Python's float ``**``)."""
    total = 0.0
    for h in np.hypot(amps.real, amps.imag).tolist():
        total += h ** 2
    return total


def test_squared_norm_matches_the_running_sum_bit_for_bit():
    rng = np.random.default_rng(8)
    h = rng.random(20_000)
    # values whose vector square (h * h, np.power) rounds differently from
    # libm pow: a switch to either fails on them one by one
    odd = h[h * h != np.array([x ** 2 for x in h.tolist()])]
    assert odd.size
    for x in odd:
        assert squared_norm(np.array([x])) == _running_squared_norm(
            np.array([x]))
    for size in (0, 1, 2, 7, 1000, 20_000):
        amps = h[:size] * np.exp(2j * np.pi * rng.random(size))
        assert squared_norm(amps) == _running_squared_norm(amps)
        assert squared_norm(h[:size]) == _running_squared_norm(h[:size])
    assert squared_norm(np.zeros(0, dtype=complex)) == 0.0


def test_psi_is_normalized():
    for c0sq in (0.0, 0.36, 0.5, 1.0):
        s = psi(math.sqrt(c0sq), math.sqrt(1 - c0sq))
        assert s.is_normalized()


# -- tensor ------------------------------------------------------------------

def test_tensor_default_alignment():
    s = tensor(epr((0, 1)), epr((0, 1)))
    # merged slots: label la*db + lb on each party
    assert s.local_dims == (4, 4)
    assert set(terms(s)) == {(0, 0), (1, 1), (2, 2), (3, 3)}
    assert terms(s)[(3, 3)] == pytest.approx(0.5)


def test_tensor_rows_run_a_outer_b_inner():
    a, b = psi(0.6, 0.8), psi_prime(0.5, 0.5, 0.5, 0.5)
    s = tensor(a, b)
    want_labels, want_amps = [], []
    for (la, va), (lb, vb) in itertools.product(terms(a).items(),
                                                terms(b).items()):
        want_labels.append(tuple(x * d + y for x, d, y in
                                 zip(la, b.local_dims, lb)))
        want_amps.append(va * vb)
    assert list(terms(s)) == want_labels
    assert s.amps.tolist() == want_amps


@pytest.mark.parametrize("state", [psi(0.6, 0.8),
                                   psi_prime(0.6, 0.5, 0.4, 0.4795831523312719),
                                   ghz(3)], ids=["psi", "psi_prime", "ghz3"])
def test_copies_rows_follow_product_order(state):
    """Copy 0 is the most significant digit and the outermost row loop."""
    out = copies(state, 3)
    want = [tuple(sum(t[p] * state.local_dims[p] ** (2 - i)
                      for i, t in enumerate(rows))
                  for p in range(state.party_count))
            for rows in itertools.product(terms(state), repeat=3)]
    assert list(terms(out)) == want


def test_tensor_alignment_errors():
    with pytest.raises(ValueError, match=r"^party counts differ \(2 vs 1\)$"):
        tensor(epr((0, 1)), PureState((2,), [(0,)], [1.0]))


def test_tensor_norm_multiplicative():
    rng = np.random.default_rng(5)
    a, b = random_state(rng), random_state(rng)
    assert tensor(a, b).norm() == pytest.approx(a.norm() * b.norm())


# -- the conftest oracles: inner product, one-party density -------------------

def test_inner_values():
    s = psi(0.6, 0.8)
    assert inner(s, s) == pytest.approx(1.0)
    e0 = PureState((2, 3, 3), [(0, 0, 0)], [1.0])
    assert inner(e0, s) == pytest.approx(0.6)
    assert inner(s, e0) == pytest.approx(0.6)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_inner_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    a, b = random_state(rng), random_state(rng)
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))
    # Cauchy-Schwarz on normalized inputs
    assert abs(inner(a, b)) <= 1.0 + 1e-12


def test_reduced_density_psi():
    rho = reduced_density(psi(0.6, 0.8), 0)
    assert np.allclose(rho, rho.conj().T) and np.trace(rho) == pytest.approx(1)
    assert np.allclose(sorted(np.linalg.eigvalsh(rho)), [0.36, 0.64])
    rho_b = reduced_density(psi(0.6, 0.8), 1)
    assert np.allclose(sorted(np.linalg.eigvalsh(rho_b)), [0.32, 0.32, 0.36])


# -- entropies -----------------------------------------------------------------

def test_entanglement_entropy_cut_errors():
    s = psi(0.6, 0.8)
    for cut in ((), (0, 1, 2), (5,)):
        with pytest.raises(ValueError):
            entanglement_entropy(s, cut)


def test_entropy_values():
    assert entropy((0.36, 0.64)) == pytest.approx(S_PSI_A, abs=1e-12)
    assert entropy((1.0, 0.0)) == 0.0
    assert entropy(np.full(8, 0.125)) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        entropy((0.7, 0.7))
    with pytest.raises(ValueError):
        entropy((-0.1, 1.1))


@pytest.mark.parametrize("cut,expect", [
    ((0,), S_PSI_A),
    ((1,), S_PSI_B),
    ((2,), S_PSI_B),
    ((1, 2), S_PSI_A),
    ((0, 2), S_PSI_B),
])
def test_entanglement_entropy_psi(cut, expect):
    assert entanglement_entropy(psi(0.6, 0.8), cut) == \
        pytest.approx(expect, abs=1e-12)


def test_entanglement_entropy_psi_prime_equal():
    s = psi_prime(0.5, 0.5, 0.5, 0.5)
    assert entanglement_entropy(s, (0,)) == pytest.approx(2.5, abs=1e-12)


def test_entanglement_entropy_ghz():
    assert entanglement_entropy(ghz(4), (0, 1)) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(8))
def test_entropy_cut_complement_symmetry(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng, dims=(2, 3, 4), support=8)
    for cut, rest in (((0,), (1, 2)), ((1,), (0, 2)), ((2,), (0, 1))):
        assert entanglement_entropy(s, cut) == \
            pytest.approx(entanglement_entropy(s, rest), abs=1e-9)


def test_entanglement_entropy_large_local_dims():
    # support-sized cost: huge local dimensions must not matter
    s = PureState((2**40, 3**40), [(0, 0), (2**39, 3**39)],
                  [1 / SQ2, 1 / SQ2])
    assert entanglement_entropy(s, (0,)) == pytest.approx(1.0)


# -- relabel -----------------------------------------------------------------

def test_relabel_roundtrip():
    s = psi(0.6, 0.8)
    r = relabel(s, 1, [0, 2], [2, 0])
    assert set(terms(r)) == {(0, 2, 0), (1, 1, 1), (1, 0, 2)}
    assert states_equal(relabel(r, 1, [2, 0], [0, 2]), s)


def test_relabel_widens_dimension():
    r = relabel(psi(0.6, 0.8), 0, [1], [7], new_dim=8)
    assert r.local_dims == (8, 3, 3)
    assert (7, 1, 1) in terms(r)


def test_relabel_errors():
    s = psi(0.6, 0.8)
    with pytest.raises(ValueError):
        relabel(s, 5, [], [])
    with pytest.raises(ValueError):
        relabel(s, 1, [1], [9])              # out of range, dim kept
    with pytest.raises(ValueError):
        relabel(s, 1, [1], [2])              # collides with existing label 2
    with pytest.raises(ValueError):
        relabel(s, 1, [0, 1], [1])           # sides of different length
    with pytest.raises(ValueError):
        relabel(s, 1, [0, 0], [1, 2])        # old label 0 repeated
    with pytest.raises(ValueError):
        relabel(s, 1, [[0, 1]], [[1, 0]])    # not vectors


def dict_relabel(s, party, old, new, new_dim=None):
    """Reference: the dict rule relabel followed before label maps became
    (old, new) arrays, refusing what a dict cannot hold (a repeated old
    label) as the array form does."""
    old, new = list(old), list(new)
    if len(old) != len(new) or len(set(old)) != len(old):
        raise ValueError("not a label map")
    mapping = dict(zip(old, new))
    if not 0 <= party < s.party_count:
        raise ValueError(f"party {party} out of range")
    dim = s.local_dims[party] if new_dim is None else int(new_dim)
    support = sorted(set(s.labels[:, party].tolist()))
    mapped = [mapping.get(x, x) for x in support]
    if mapped and not 0 <= min(mapped) <= max(mapped) < dim:
        raise ValueError("mapped label outside the dimension")
    if len(set(mapped)) != len(mapped):
        raise ValueError("label map is not injective on the support")
    to = dict(zip(support, mapped))
    dims = s.local_dims[:party] + (dim,) + s.local_dims[party + 1:]
    m = {l[:party] + (to[l[party]],) + l[party + 1:]: a
         for l, a in terms(s).items()}
    return PureState(dims, list(m), list(m.values()))


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(0, 8),
       st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_relabel_matches_the_dict_rule(seed, party, size, widen, repeat):
    # small label ranges so that maps often collide on the support, leave
    # the dimension, or repeat an old label
    rng = np.random.default_rng(seed)
    s = random_state(rng, dims=(4, 5, 6), support=int(rng.integers(1, 9)))
    dim = s.local_dims[party]
    new_dim = dim + 3 if widen else None
    old = rng.choice(dim + 2, size=min(size, dim + 2), replace=repeat)
    new = rng.integers(0, dim + 3, size=len(old))
    try:
        want = dict_relabel(s, party, old.tolist(), new.tolist(), new_dim)
    except ValueError:
        with pytest.raises(ValueError):
            relabel(s, party, old, new, new_dim)
        return
    got = relabel(s, party, old, new, new_dim)
    assert got.local_dims == want.local_dims
    assert terms(got) == terms(want)
    assert np.array_equal(got.amps, s.amps)      # row order kept


@given(st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
       st.integers(0, 8), st.booleans())
@settings(max_examples=200, deadline=None)
def test_relabel_of_several_parties_is_the_rule_per_party(seed, parties,
                                                          size, widen):
    # one call on several parties equals one dict-rule call per party in
    # turn, refusals included
    rng = np.random.default_rng(seed)
    s = random_state(rng, dims=(4, 5, 6), support=int(rng.integers(1, 9)))
    new_dim = 9 if widen else None
    old = rng.choice(7, size=min(size, 7), replace=False)
    new = rng.integers(0, 8, size=len(old))
    try:
        want = s
        for p in parties:
            want = dict_relabel(want, p, old.tolist(), new.tolist(), new_dim)
    except ValueError:
        with pytest.raises(ValueError):
            relabel(s, parties, old, new, new_dim)
        return
    got = relabel(s, parties, old, new, new_dim)
    assert got.local_dims == want.local_dims
    assert terms(got) == terms(want)
    assert np.array_equal(got.amps, s.amps)      # row order kept


def test_relabel_refuses_any_party_out_of_range():
    s = psi(0.6, 0.8)
    with pytest.raises(ValueError, match=r"^party 3 outside 0\.\.2$"):
        relabel(s, (1, 3), [0], [0])
    with pytest.raises(ValueError, match="outside 0..2"):
        relabel(s, (1, 2), [1], [5])
    assert set(terms(relabel(s, [1, 2], [0, 2], [2, 0]))) == {
        (0, 2, 2), (1, 1, 1), (1, 0, 0)}


@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=12),
       st.integers(0, 3))
@example([], 0)
@example([5], 0)
@example([2**63 - 1, 2**63 - 1], 0)
@example([2**63 - 1, 2**63 - 2], 0)
@example([-2**63, 2**63 - 1], 0)
@example([-2**63, -2**63], 0)
@settings(max_examples=300, deadline=None)
def test_repeat_check_matches_unique(xs, near_max):
    # near_max > 0 packs the entries next to the int64 maximum
    x = np.array(xs, dtype=np.int64)
    if near_max:
        x = np.iinfo(np.int64).max - np.abs(x % 4)
    assert _has_repeats(x) == (np.unique(x).size != x.size)


@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(0, 4),
       st.sampled_from([1, 3, 2**20, 2**62]))
@example(0, 0, 3, 3)   # no rows
@example(0, 5, 0, 3)   # no columns: every row is the empty row
@example(0, 0, 0, 3)
@settings(max_examples=300, deadline=None)
def test_row_codes_match_unique(seed, rows, cols, top):
    # a small ``top`` repeats rows often; 2**62 reaches far into int64
    labels = np.random.default_rng(seed).integers(
        0, top, size=(rows, cols), dtype=np.int64)
    found, want = np.unique(labels, axis=0, return_inverse=True)
    want = want.reshape(-1)
    got = _row_codes(labels)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # and _unique_rows: the distinct rows themselves, in the same order
    rows, codes = _unique_rows(labels)
    assert np.array_equal(codes, want)
    assert rows.dtype == found.dtype and rows.shape == found.shape
    assert np.array_equal(rows, found)


# -- equality up to phase ----------------------------------------------------

def test_states_equal_global_phase():
    s = psi(0.6, 0.8)
    rot = PureState(s.local_dims, s.labels, s.amps * np.exp(0.7j))
    assert states_equal(s, rot)
    assert not states_equal(s, psi(0.8, 0.6))
    assert states_equal(PureState((2,), [], []), PureState((2,), [], []))
    assert not states_equal(s, PureState(s.local_dims, [], []))


def test_amplitude_distance():
    s = psi(0.6, 0.8)
    rot = PureState(s.local_dims, s.labels, s.amps * np.exp(-1.3j))
    assert amplitude_distance(s, rot) < 1e-15
    assert amplitude_distance(s, PureState(s.local_dims, [], [])) == \
        pytest.approx(0.6)
    # one dropped term: distance is that term's amplitude
    part = PureState(s.local_dims, [(0, 0, 0), (1, 1, 1)], [0.6, 0.8 / SQ2])
    assert amplitude_distance(s, part) == pytest.approx(0.8 / SQ2)
    with pytest.raises(ValueError):
        amplitude_distance(s, PureState((2, 2), [(0, 0)], [1.0]))


def _distance_by_terms(a, b):
    """The term-by-term rule that the array code replaced (reference)."""
    amps_a, amps_b = terms(a), terms(b)
    if not amps_a:
        return max((abs(v) for v in amps_b.values()), default=0.0)
    ref = min(amps_a, key=lambda l: (-abs(amps_a[l]), l))
    va, vb = amps_a[ref], amps_b.get(ref, 0j)
    pa = va / abs(va)
    pb = vb / abs(vb) if abs(vb) > 0 else pa
    return max(abs(amps_a.get(l, 0j) / pa - amps_b.get(l, 0j) / pb)
               for l in amps_a.keys() | amps_b.keys())


def _phased_state(rng, dims):
    labels = {tuple(int(rng.integers(d)) for d in dims)
              for _ in range(int(rng.integers(1, 8)))}
    mags = rng.choice([0.25, 0.5, 1.0], size=len(labels))   # many ties
    phases = rng.choice([1, -1, 1j, -1j, np.exp(0.3j)], size=len(labels))
    return PureState(dims, list(labels),
                     [complex(m * p) for m, p in zip(mags, phases)])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_amplitude_distance_matches_the_term_by_term_rule(seed):
    rng = np.random.default_rng(seed)
    a, b = _phased_state(rng, (3, 3, 2)), _phased_state(rng, (3, 3, 2))
    assert amplitude_distance(a, b) == \
        pytest.approx(_distance_by_terms(a, b), abs=1e-15)


def test_amplitude_distance_near_tie_picks_the_smallest_label():
    # |0.9553...+0.2955...j| is 1 by libm hypot (Python's abs) and one ulp
    # less by numpy's complex abs; the tie with -1j goes to label (1, 0, 1)
    a = PureState((3, 3, 2), [(1, 2, 1), (1, 0, 1)],
                  [-1j, complex(0.955336489125606, 0.29552020666133955)])
    b = PureState((3, 3, 2), [(1, 0, 1), (2, 0, 0)], [-0.5 + 0j, 1.0 + 0j])
    assert amplitude_distance(a, b) == _distance_by_terms(a, b)


def test_budget_constant_sane():
    assert {k: v for k, v in _BUDGETS.items() if not callable(v)} == {
        "explicit terms": 10**7, "explicit copies": 63, "block rows": 200_000,
        "projector labels": 4_000_000, "bulk entries": 10**8,
        "sampling trials": 10**6, "state parties": 26}
    assert _BUDGETS["multiplicity digits"]() == sys.get_int_max_str_digits()
    assert NORM_TOL == 1e-9


def test_check_budget_boundaries():
    """At the limit passes and returns the need; one over is refused with
    the exact amount; far over is refused from log2 alone, unformed."""
    def unformed():
        raise AssertionError("the exact need was formed")

    assert _check_budget("x", "block rows", 200_000) == 200_000
    assert _check_budget("x", "block rows", lambda: 7, 2.0) == 7
    with pytest.raises(BudgetError, match=(
            "^x needs 200001 rows, budget is 200000 rows$")):
        _check_budget("x", "block rows", 200_001)
    with pytest.raises(BudgetError, match=(
            r"^x needs at least 2\*\*1e\+40 rows, budget is 200000 rows$")):
        _check_budget("x", "block rows", unformed, 1e40)


def _src_trees():
    src = Path(__file__).resolve().parents[1] / "src" / "eprghz"
    return {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}


def _folded_ints(node):
    """(node, value) for each largest int-valued expression of literals,
    so that 10**7 is found as well as 10_000_000 (but not the 63 of
    2**63 - 1)."""
    if isinstance(node, (ast.Constant, ast.BinOp)) and all(
            isinstance(x, (ast.Constant, ast.BinOp, ast.operator))
            for x in ast.walk(node)):
        value = eval(compile(ast.Expression(node), "<src>", "eval"))
        if type(value) is int:
            yield node, value
        return
    for child in ast.iter_child_nodes(node):
        yield from _folded_ints(child)


def test_every_budget_lives_in_the_one_table():
    """One ``raise BudgetError`` in the package, and no budget's value or
    name outside the table."""
    raises, strays = [], []
    limits = {v for v in _BUDGETS.values() if not callable(v)}
    for name, tree in _src_trees().items():
        table = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(
                    node.targets[0], ast.Name) and node.targets[0].id
                    == "_BUDGETS"):
                table = {id(x) for x in ast.walk(node)}
            elif isinstance(node, ast.Assign):
                strays += [f"{name}: {t.id}" for t in node.targets
                           if isinstance(t, ast.Name)
                           and "BUDGET" in t.id.upper()]
        strays += [f"{name}:{node.lineno}: {value}"
                   for node, value in _folded_ints(tree)
                   if value in limits and id(node) not in table]
        raises += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Raise) and node.exc is not None
                   and "BudgetError" in ast.unparse(node.exc).split("(")[0]]
    assert len(raises) == 1 and raises[0].startswith("hilbert.py:")
    assert strays == []

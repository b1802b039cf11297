"""Canonical states, component specs, serialization, and tensor powers."""

import json
import math

import numpy as np
import pytest
from conftest import inner, psi_prime, terms

from eprghz.canonical import (
    CanonicalComponent, StateSpec, copies, epr, ghz, level_epr, level_ghz,
    psi, psi_general, psi_prime_spec, psi_spec, random_spec, spec_draws,
    spec_from_dict, spec_from_json, spec_to_dict, spec_to_json,
)
from eprghz.hilbert import BudgetError, PureState, states_equal
from eprghz.locc import check_local_orthogonality, stream_uniforms

SQ2 = math.sqrt(2.0)


# -- canonical resource states -----------------------------------------------

def test_epr_and_ghz():
    e = epr((0, 1))
    assert e.local_dims == (2, 2)
    assert terms(e)[(0, 0)] == pytest.approx(1 / SQ2)
    g = ghz(3)
    assert g.local_dims == (2, 2, 2)
    assert set(terms(g)) == {(0, 0, 0), (1, 1, 1)}
    with pytest.raises(ValueError):
        ghz(1)


def test_level_states_embed():
    s = level_epr(4, (1, 2), 3)
    assert s.local_dims == (1, 4, 4)
    assert set(terms(s)) == {(0, q, q) for q in range(4)}
    g = level_ghz(3, (0, 2), 3)
    assert g.local_dims == (3, 1, 3)
    assert terms(g)[(2, 0, 2)] == pytest.approx(1 / math.sqrt(3))


def test_level_one_is_product():
    s = level_ghz(1, (0, 1, 2))
    assert terms(s) == {(0, 0, 0): 1.0}


# -- seed states -------------------------------------------------------------

def test_psi_amplitudes():
    s = psi(0.6, 0.8)
    assert s.local_dims == (2, 3, 3)
    assert terms(s) == pytest.approx(
        {(0, 0, 0): 0.6, (1, 1, 1): 0.8 / SQ2, (1, 2, 2): 0.8 / SQ2})


def test_psi_prime_amplitudes():
    c = 0.5
    s = psi_prime(c, c, c, c)
    assert s.local_dims == (6, 6, 6)
    assert terms(s) == pytest.approx({
        (0, 0, 0): c,
        (1, 1, 1): c / SQ2, (1, 2, 2): c / SQ2,    # B-C pair, A parked
        (2, 3, 3): c / SQ2, (3, 3, 4): c / SQ2,    # A-C pair, B parked
        (4, 4, 5): c / SQ2, (5, 5, 5): c / SQ2,    # A-B pair, C parked
    })


def test_coefficient_validation():
    with pytest.raises(ValueError):
        psi(0.5, 0.5)
    with pytest.raises(ValueError):
        psi(-0.6, 0.8)
    with pytest.raises(ValueError):
        psi_prime_spec(0.9, 0.9, 0.1, 0.1)
    with pytest.raises(ValueError, match="sum to nan"):
        psi_spec(math.nan, 1.0)          # NaN passes every comparison


# -- component specs ---------------------------------------------------------

def test_component_validation():
    with pytest.raises(ValueError):
        CanonicalComponent(0.0, (0, 1))
    with pytest.raises(ValueError):
        CanonicalComponent(0.5, ())
    with pytest.raises(ValueError):
        CanonicalComponent(0.5, (0, 1), level=1)
    # support is canonicalized: sorted, deduplicated
    assert CanonicalComponent(1.0, (2, 0, 2)).support == (0, 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        StateSpec(1, (CanonicalComponent(1.0, (0,)),))
    with pytest.raises(ValueError):
        StateSpec(3, (CanonicalComponent(1.0, (0, 5)),))
    with pytest.raises(ValueError):
        StateSpec(3, (CanonicalComponent(0.9, (0,)),))   # squared sum != 1


def test_psi_spec_layout():
    spec = psi_spec(0.6, 0.8)
    assert spec.local_dims() == (2, 3, 3)
    assert spec.offsets(0) == (0, 0, 0)
    assert spec.offsets(1) == (1, 1, 1)
    assert spec.product_labels(0) == {0: 0, 1: 0, 2: 0}
    assert spec.product_labels(1) == {0: 1}
    assert spec.squared_coefficients() == pytest.approx((0.36, 0.64))


def test_psi_spec_drops_zero_components():
    spec = psi_spec(1.0, 0.0)
    assert len(spec.components) == 1
    assert spec.components[0].support == (0,)


def test_psi_prime_spec_layout():
    spec = psi_prime_spec(0.5, 0.5, 0.5, 0.5)
    assert spec.local_dims() == (6, 6, 6)
    assert [c.support for c in spec.components] == \
        [(0,), (1, 2), (0, 2), (0, 1)]


def test_psi_general_matches_displayed_states():
    s = psi_general(psi_spec(0.6, 0.8))
    assert terms(s) == pytest.approx(terms(psi(0.6, 0.8)))
    cs = np.sqrt((0.1, 0.2, 0.3, 0.4))
    s = psi_general(psi_prime_spec(*cs))
    assert terms(s) == pytest.approx(terms(psi_prime(*cs)))


def test_spec_matches_state():
    assert states_equal(psi_general(psi_spec(0.6, 0.8)), psi(0.6, 0.8))
    assert not states_equal(psi_general(psi_spec(0.6, 0.8)), psi(0.8, 0.6))


@pytest.mark.parametrize("seed", range(10))
def test_random_spec_is_well_formed(seed, party_count=4):
    rng = np.random.default_rng(seed)
    spec = random_spec(party_count, rng)
    state = psi_general(spec)
    assert state.is_normalized()
    parts = [spec.component_state(i) for i in range(len(spec.components))]
    assert check_local_orthogonality(parts)
    for p in parts:
        assert p.is_normalized()


@pytest.mark.parametrize("party_count", [2, 3, 4, 5])
def test_random_spec_reads_one_layout_from_every_form_of_a_seed(party_count):
    """A seed, its SeedSequence, a fresh Generator of it and its first
    ``spec_draws`` doubles give the same layout, bit for bit."""
    count = spec_draws(party_count)
    assert count == 1 + 4 * (party_count + 3)
    for seed in (*range(40), 2**32 + 1, 2**128 + 5):
        want = random_spec(party_count, seed)
        assert random_spec(party_count, np.random.default_rng(seed)) == want
        assert random_spec(party_count, np.random.SeedSequence(seed)) == want
        assert random_spec(party_count, stream_uniforms(seed, count)) == want


def test_random_spec_advances_a_generator_by_its_draw_count():
    rng = np.random.default_rng(6)
    random_spec(3, rng)
    assert np.array_equal(rng.random(2),
                          np.random.default_rng(6).random(27)[25:])


@pytest.mark.parametrize("party_count", [2, 3, 4, 5])
def test_random_spec_reaches_every_count_size_and_level(party_count):
    counts, sizes, levels = set(), set(), set()
    for seed in range(200):
        spec = random_spec(party_count, seed)
        counts.add(len(spec.components))
        sizes |= {len(c.support) for c in spec.components}
        levels |= {c.level for c in spec.components}
    assert counts == {2, 3, 4}
    assert sizes == set(range(1, party_count + 1))
    assert levels == {2, 3}


@pytest.mark.parametrize("count", [24, 26, 29, 0])
def test_random_spec_refuses_draws_of_the_wrong_length(count):
    with pytest.raises(ValueError, match=r"^need 25 draws, got shape"):
        random_spec(3, np.full(count, 0.5))


def test_component_states_orthonormal():
    spec = psi_prime_spec(0.5, 0.5, 0.5, 0.5)
    parts = [spec.component_state(i) for i in range(4)]
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            assert inner(a, b) == pytest.approx(1.0 if i == j else 0.0)


# -- serialization -----------------------------------------------------------

def test_spec_json_roundtrip():
    rng = np.random.default_rng(3)
    for spec in (psi_spec(0.6, 0.8), psi_prime_spec(0.5, 0.5, 0.5, 0.5),
                 random_spec(4, rng)):
        back = spec_from_json(spec_to_json(spec))
        assert back == spec
        assert states_equal(psi_general(back), psi_general(spec))


def test_spec_dict_schema():
    d = spec_to_dict(psi_spec(0.6, 0.8))
    assert d["m"] == 3
    assert d["components"][0]["support"] == [0]
    assert d["components"][1]["product_labels"] == {"0": "1"} or \
        d["components"][1]["product_labels"] == {"0": 1}


def test_spec_from_dict_rejects_bad_product_labels():
    d = spec_to_dict(psi_spec(0.6, 0.8))
    d["components"][1]["product_labels"] = {"0": 0}   # contradicts layout
    with pytest.raises(ValueError):
        spec_from_dict(d)


def test_spec_from_dict_missing_keys():
    with pytest.raises(ValueError):
        spec_from_dict({"components": []})
    with pytest.raises((ValueError, KeyError)):
        spec_from_dict({"m": 3, "components": [{"support": [0]}]})


def test_spec_json_is_stable():
    text = spec_to_json(psi_prime_spec(0.5, 0.5, 0.5, 0.5))
    assert text == spec_to_json(spec_from_json(text))
    json.loads(text)   # well-formed


# -- tensor powers -----------------------------------------------------------

def test_copies_label_flattening():
    s = copies(psi(0.6, 0.8), 2)
    assert s.local_dims == (4, 9, 9)
    assert s.support_size == 9
    # copy 0 is the most significant digit on every party
    t = terms(s)
    assert t[(0, 0, 0)] == pytest.approx(0.36)
    assert t[(1, 1, 1)] == pytest.approx(0.6 * 0.8 / SQ2)
    assert t[(2, 3, 3)] == pytest.approx(0.8 / SQ2 * 0.6)
    assert t[(3, 5, 5)] == pytest.approx(0.32)  # (1,1,1)x(1,2,2)


def test_copies_identity_and_errors():
    s = psi(0.6, 0.8)
    assert copies(s, 1) == s
    with pytest.raises(ValueError):
        copies(s, 0)


def test_copies_budget_refusal():
    wide = level_ghz(4000, (0, 1))
    with pytest.raises(BudgetError):
        copies(wide, 3)                     # 4000^3 >> explicit budget


def test_copies_norm_preserved():
    assert copies(psi_prime(0.5, 0.5, 0.5, 0.5), 3).is_normalized()

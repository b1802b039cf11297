"""Input refusals of the package's entry points: each bad input raises its
own exception type with a message naming what is wrong."""

import numpy as np
import pytest

from eprghz.blocks import (block_labels, block_probability, block_state,
                           block_yields, classify_copies_label, decompose,
                           log2_binomial_array, log2_multinomial,
                           verify_block_equivalence)
from eprghz.canonical import (CanonicalComponent, StateSpec, copies, ghz,
                              level_epr, level_ghz, psi, psi_spec,
                              random_spec, spec_from_dict)
from eprghz.cli import UsageError, build_parser
from eprghz.extraction import (block_measurement_povm, block_outcomes,
                               expected_means, expected_yields,
                               run_extraction)
from eprghz.hilbert import (PureState, entanglement_entropy, relabel,
                            states_equal, tensor)
from eprghz.locc import (LocalOperator, Transcript, apply_operator,
                         as_generator, stream_uniforms, trial_seed,
                         trial_seeds, uniform_draws)
from eprghz.preparation import ghz_weighting_povm, prepare_approx


def one_term(dim):
    return PureState((dim,), [(0,)], [1.0])


def seed_spec(m=3, support=(1, 2), level=2, labels=None, c=0.6):
    """The seed's --spec object with one field replaced; ``labels`` are the
    product component's declared labels, ``c`` its coefficient."""
    product = {"c": c, "support": [0]}
    if labels is not None:
        product["product_labels"] = labels
    return spec_from_dict({"m": m, "components": [
        product, {"c": 0.8, "support": support, "level": level}]})


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: log2_binomial_array(5, [6]), ValueError,
     r"^binomial index outside 0\.\.5$"),
    (lambda: log2_multinomial([[-1, 2]]), ValueError, "^negative count in"),
    (lambda: decompose(psi_spec(0.6, 0.8), 0), ValueError,
     "^need n >= 1, got 0$"),
    (lambda: block_labels(3, 2, 1), ValueError,
     r"^window \(2, 1\) outside 0\.\.3$"),
    (lambda: level_ghz(0, (0, 1)), ValueError, "^level must be >= 1, got 0$"),
    (lambda: level_ghz(2, (-1, 0)), ValueError,
     r"^negative party id in \(-1, 0\)$"),
    (lambda: level_ghz(2, (0, 2), 2), ValueError,
     r"^party_count 2 too small for \(0, 2\)$"),
    (lambda: level_epr(2, (0, 1, 2)), ValueError,
     r"^an EPR-type state needs exactly 2 parties, got \(0, 1, 2\)$"),
    (lambda: StateSpec(3, ()), ValueError, "^spec has no nonzero components$"),
    (lambda: build_parser().parse_args(
        ["extract", "--psi", "0.6", "0.8", "-N", "x"]), UsageError,
     "^argument -N/--copies: invalid integer 'x'$"),
    (lambda: tensor(one_term(2**40), one_term(2**30)), ValueError,
     "^a merged dimension exceeds int64 labels$"),
    (lambda: prepare_approx(2, 0.0, 1.0, window=(1, 2)), ValueError,
     "^window carries no amplitude for these coefficients$"),
    (lambda: block_probability(2, (1, 1), (float("nan"), 0.5)), ValueError,
     "^squared coefficients sum to nan, not 1$"),
    (lambda: ghz_weighting_povm([float("nan"), 1.0]), ValueError,
     "^weights have squared sum nan, need 1$"),
    # integral fields of a spec are never truncated
    (lambda: seed_spec(level=2.7), ValueError,
     "^level must be an integer, got 2.7$"),
    (lambda: seed_spec(level=True), ValueError,
     "^level must be an integer, got True$"),
    (lambda: seed_spec(m=3.9), ValueError,
     "^party count must be an integer, got 3.9$"),
    (lambda: seed_spec(support=[1.9, 2.2]), ValueError,
     "^support entry must be an integer, got 1.9$"),
    (lambda: seed_spec(support="12"), ValueError,
     "^support entry must be an integer, got '1'$"),
    (lambda: seed_spec(labels={"1": 0.0, "2": 0}), ValueError,
     "^product label must be an integer, got 0.0$"),
    (lambda: seed_spec(labels={"1": False, "2": 0}), ValueError,
     "^product label must be an integer, got False$"),
    (lambda: CanonicalComponent(0.8, (1.5, 2), 2.7), ValueError,
     "^support entry must be an integer, got 1.5$"),
    (lambda: CanonicalComponent(0.8, (1, 2), 2.7), ValueError,
     "^level must be an integer, got 2.7$"),
    # a coefficient is a number, never a bool or a string read as one
    (lambda: seed_spec(c=True), ValueError,
     "^coefficient must be a number, got True$"),
    (lambda: seed_spec(c="0.6"), ValueError,
     "^coefficient must be a number, got '0.6'$"),
    (lambda: spec_from_dict({"m": 2, "components": [
        {"c": "1", "support": [0, 1]}]}), ValueError,
     "^coefficient must be a number, got '1'$"),
    (lambda: CanonicalComponent(True, (1, 2)), ValueError,
     "^coefficient must be a number, got True$"),
    (lambda: CanonicalComponent(np.True_, (1, 2)), ValueError,
     "^coefficient must be a number, got "),
    # copy counts, block indices and trial counts are never truncated
    (lambda: copies(psi(0.6, 0.8), 2.9), ValueError,
     "^n must be an integer, got 2.9$"),
    (lambda: copies(psi(0.6, 0.8), True), ValueError,
     "^n must be an integer, got True$"),
    (lambda: ghz(3.0), ValueError, "^n must be an integer, got 3.0$"),
    (lambda: block_state(3.7, 1.2), ValueError,
     "^n must be an integer, got 3.7$"),
    (lambda: block_state(3, 1.2), ValueError,
     "^block index must be an integer, got 1.2$"),
    (lambda: verify_block_equivalence(3.5, 1), ValueError,
     "^n must be an integer, got 3.5$"),
    (lambda: verify_block_equivalence(3, True), ValueError,
     "^block index must be an integer, got True$"),
    (lambda: block_labels(3.5, 0, True), ValueError,
     "^n must be an integer, got 3.5$"),
    (lambda: block_labels(3, 0, True), ValueError,
     "^window bound must be an integer, got True$"),
    (lambda: decompose(psi_spec(0.6, 0.8), 3.5), ValueError,
     "^n must be an integer, got 3.5$"),
    (lambda: block_probability(2, (1.0, 1), (0.36, 0.64)), ValueError,
     "^count must be an integer, got 1.0$"),
    (lambda: block_probability(2.0, (1, 1), (0.36, 0.64)), ValueError,
     "^n must be an integer, got 2.0$"),
    (lambda: expected_yields(psi_spec(0.6, 0.8), 10.9), ValueError,
     "^n must be an integer, got 10.9$"),
    (lambda: expected_means(psi_spec(0.6, 0.8), "3"), ValueError,
     "^n must be an integer, got '3'$"),
    (lambda: run_extraction(psi_spec(0.6, 0.8), 2.5, 10, seed=1), ValueError,
     "^n must be an integer, got 2.5$"),
    (lambda: run_extraction(psi_spec(0.6, 0.8), 2, 10.0, seed=1), ValueError,
     "^trials must be an integer, got 10.0$"),
    (lambda: random_spec(3.0, 0), ValueError,
     "^party count must be an integer, got 3.0$"),
    (lambda: random_spec(1, 0), ValueError, "^need at least 2 parties$"),
    # levels, parties and dimensions of states and operators are never
    # truncated
    (lambda: level_ghz(2.7, (0, 1)), ValueError,
     "^level must be an integer, got 2.7$"),
    (lambda: level_ghz(2, (0.5, 1.9)), ValueError,
     "^party must be an integer, got 0.5$"),
    (lambda: level_epr(2, (0, True)), ValueError,
     "^party must be an integer, got True$"),
    (lambda: PureState((2.9, 3), [(0, 0)], [1.0]), ValueError,
     "^local dimension must be an integer, got 2.9$"),
    (lambda: PureState((True, 3), [(0, 0)], [1.0]), ValueError,
     "^local dimension must be an integer, got True$"),
    (lambda: relabel(psi(0.6, 0.8), 0.5, [0, 1], [1, 0]), ValueError,
     "^party must be an integer, got 0.5$"),
    (lambda: relabel(psi(0.6, 0.8), 0, [0, 1], [1, 0], 2.0), ValueError,
     "^new_dim must be an integer, got 2.0$"),
    (lambda: entanglement_entropy(psi(0.6, 0.8), (0.2,)), ValueError,
     "^party must be an integer, got 0.2$"),
    (lambda: LocalOperator(1.7, [1.0, 1.0]), ValueError,
     "^party must be an integer, got 1.7$"),
    (lambda: Transcript().extend(["s"], 1.5, [0], [0.5]), ValueError,
     "^party must be an integer, got 1.5$"),
    (lambda: Transcript().extend(["s"], True, [0], [0.5]), ValueError,
     "^party must be an integer, got True$"),
    (lambda: Transcript().extend(["s"], 0, [1.5], [0.5]), ValueError,
     "^outcome must be an integer, got 1.5$"),
    (lambda: Transcript().extend(["s", "t", "u"], [True, 1.9, 2],
                                 ["3", 1.5, 2], [0.5] * 3), ValueError,
     "^party must be an integer, got True$"),
    (lambda: Transcript().extend(["s", "t"], 0, np.array(["3", "4"]),
                                 [0.5] * 2), ValueError,
     "^outcome must be an integer, got '3'$"),
    # a party indexes one of the state's parties
    (lambda: LocalOperator(-1, [1.0, 0.0, 1.0]), ValueError,
     "^party must be non-negative, got -1$"),
    (lambda: apply_operator(psi(0.6, 0.8), LocalOperator(5, [1.0, 0.0, 1.0])),
     ValueError, r"^party 5 outside 0\.\.2$"),
    (lambda: block_outcomes(psi_spec(0.6, 0.8), 2, party=-1), ValueError,
     r"^party -1 outside 0\.\.2$"),
    (lambda: block_outcomes(psi_spec(0.6, 0.8), 2, party=3), ValueError,
     r"^party 3 outside 0\.\.2$"),
    (lambda: block_outcomes(psi_spec(0.6, 0.8), True), ValueError,
     "^n must be an integer, got True$"),
    (lambda: block_measurement_povm(psi_spec(0.6, 0.8), 2, party=-1),
     ValueError, r"^party -1 outside 0\.\.2$"),
    (lambda: block_outcomes(psi_spec(0.6, 0.8), 2, party=0.5), ValueError,
     "^party must be an integer, got 0.5$"),
    (lambda: classify_copies_label(psi_spec(0.6, 0.8), 3, [0], 2),
     ValueError, r"^party 3 outside 0\.\.2$"),
    (lambda: block_yields((1.5, 0.5), psi_spec(0.6, 0.8)), ValueError,
     "^count must be an integer, got 1.5$"),
    # seeds and draw counts are never truncated
    (lambda: stream_uniforms(1.9, 2), ValueError,
     "^seed must be an integer, got 1.9$"),
    (lambda: stream_uniforms(True, 2), ValueError,
     "^seed must be an integer, got True$"),
    (lambda: stream_uniforms(1, 2.0), ValueError,
     "^count must be an integer, got 2.0$"),
    (lambda: stream_uniforms(1, 2, keys=[0.5]), ValueError,
     "^spawn key must be an integer, got 0.5$"),
    (lambda: stream_uniforms(1, 2, keys=np.array([True])), ValueError,
     "^spawn key must be an integer, got True$"),
    (lambda: stream_uniforms(1, 2, keys=["1"]), ValueError,
     "^spawn key must be an integer, got '1'$"),
    (lambda: uniform_draws(True, 3), ValueError,
     "^seed must be an integer, got True$"),
    (lambda: as_generator(1.5), ValueError,
     "^seed must be an integer, got 1.5$"),
    (lambda: trial_seeds(1, 2.5), ValueError,
     "^trials must be an integer, got 2.5$"),
    (lambda: trial_seeds(True, 2), ValueError,
     "^seed must be an integer, got True$"),
    (lambda: trial_seed(1.9, 2), ValueError,
     "^seed must be an integer, got 1.9$"),
    (lambda: trial_seed(1, 2.2), ValueError,
     "^trial must be an integer, got 2.2$"),
    (lambda: run_extraction(psi_spec(0.6, 0.8), 2, 10, seed=1.9), ValueError,
     "^seed must be an integer, got 1.9$"),
    (lambda: run_extraction(psi_spec(0.6, 0.8), 2, 10, seed=True,
                            analytic=True), ValueError,
     "^seed must be an integer, got True$"),
    (lambda: random_spec(3, True), ValueError,
     "^seed must be an integer, got True$"),
])
def test_bad_input_is_refused(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_integral_values_of_any_int_type_are_read():
    assert seed_spec(m=np.int64(3), support=[np.int32(1), 2],
                     level=np.int64(2),
                     labels={"0": 0, "1": np.int64(0), "2": 0}) == \
        psi_spec(0.6, 0.8)


def test_parties_dimensions_and_seeds_of_any_int_type_are_read():
    assert states_equal(level_ghz(np.int64(3), (np.int32(0), np.int64(2))),
                        level_ghz(3, (0, 2)))
    assert PureState((np.int64(2),), [(1,)], [1.0]).local_dims == (2,)
    assert states_equal(relabel(psi(0.6, 0.8), np.int64(1), [1, 2], [2, 1]),
                        relabel(psi(0.6, 0.8), 1, [1, 2], [2, 1]))
    assert entanglement_entropy(psi(0.6, 0.8), (np.int64(0),)) == \
        entanglement_entropy(psi(0.6, 0.8), (0,))
    assert type(LocalOperator(np.int64(1), [1.0]).party) is int
    assert np.array_equal(stream_uniforms(np.int64(1), np.int32(2)),
                          stream_uniforms(1, 2))
    assert trial_seed(np.int64(1), np.int64(2)).spawn_key == (2,)


def test_copy_and_block_counts_of_any_int_type_are_read():
    seed = psi(0.6, 0.8)
    assert states_equal(copies(seed, np.int64(2)), copies(seed, 2))
    assert states_equal(block_state(np.int64(3), np.int32(1)),
                        block_state(3, 1))
    assert verify_block_equivalence(np.int16(2), np.int64(1))
    assert expected_yields(psi_spec(0.6, 0.8), np.int64(10)) == \
        expected_yields(psi_spec(0.6, 0.8), 10)
    assert block_probability(np.int64(2), (np.int32(1), 1), (0.36, 0.64)) \
        == block_probability(2, (1, 1), (0.36, 0.64))

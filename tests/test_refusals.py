"""Input refusals of the package's entry points: each bad input raises its
own exception type with a message naming what is wrong."""

import numpy as np
import pytest

from eprghz.blocks import (block_labels, block_probability, decompose,
                           log2_binomial_array, log2_multinomial)
from eprghz.canonical import (CanonicalComponent, StateSpec, level_epr,
                              level_ghz, psi_spec, spec_from_dict)
from eprghz.cli import UsageError, build_parser
from eprghz.hilbert import PureState, tensor
from eprghz.preparation import ghz_weighting_povm, prepare_approx


def one_term(dim):
    return PureState((dim,), [(0,)], [1.0])


def seed_spec(m=3, support=(1, 2), level=2, labels=None):
    """The seed's --spec object with one field replaced; ``labels`` are the
    product component's declared labels."""
    product = {"c": 0.6, "support": [0]}
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
])
def test_bad_input_is_refused(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_integral_values_of_any_int_type_are_read():
    assert seed_spec(m=np.int64(3), support=[np.int32(1), 2],
                     level=np.int64(2),
                     labels={"0": 0, "1": np.int64(0), "2": 0}) == \
        psi_spec(0.6, 0.8)

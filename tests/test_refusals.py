"""Input refusals of the package's entry points: each bad input raises its
own exception type with a message naming what is wrong."""

import pytest

from eprghz.blocks import (block_labels, decompose, log2_binomial_array,
                           log2_multinomial)
from eprghz.canonical import StateSpec, level_epr, level_ghz, psi_spec
from eprghz.cli import UsageError, build_parser
from eprghz.hilbert import PureState, tensor
from eprghz.preparation import prepare_approx


def one_term(dim):
    return PureState((dim,), [(0,)], [1.0])


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
])
def test_bad_input_is_refused(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()

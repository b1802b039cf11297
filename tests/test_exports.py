"""The package's export list names each public member once."""

import inspect

import pytest

import eprghz

REMOVED = ("DensityMatrix", "reduced_density", "inner", "psi_prime",
           "multinomial_exact")
# parameters that no caller set to anything but their default, now fixed
# (NORM_TOL, ORTHO_EPS) or gone
FIXED = [(eprghz.decompose, "state"), (eprghz.decompose, "tol"),
         (eprghz.verify_block_equivalence, "tol"),
         (eprghz.states_equal, "tol"),
         (eprghz.PureState.is_normalized, "tol"),
         (eprghz.check_completeness, "tol"),
         (eprghz.check_local_orthogonality, "tol"),
         (eprghz.entropy_consistency, "tol"),
         (eprghz.random_spec, "num_components"),
         (eprghz.ghz_weighting_povm, "party"),
         (eprghz.row_shorten_povm, "party")]


def test_all_names_each_attribute_once():
    names = eprghz.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(eprghz, n)] == []
    assert [n for n in REMOVED if n in names or hasattr(eprghz, n)] == []


@pytest.mark.parametrize("func, name", FIXED,
                         ids=[f"{f.__qualname__}.{n}" for f, n in FIXED])
def test_fixed_parameters_stay_gone(func, name):
    assert name not in inspect.signature(func).parameters


def test_decompose_only_enumerates():
    assert list(inspect.signature(eprghz.decompose).parameters) == \
        ["spec", "n"]


def test_window_is_a_pair():
    assert eprghz.Window._fields == ("k_minus", "k_plus")

"""Sparse multipartite simulator for reversible interconversion between a
family of tripartite states and canonical EPR / GHZ resources.

Importing the package runs none of its modules: each is registered in
``sys.modules`` and its body runs the first time something reads from it,
so a CLI request pays only for the modules it calls."""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(short: str):
    """``eprghz.<short>``, registered in ``sys.modules`` with its body left
    to run on the first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{short}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


hilbert, canonical, locc, blocks, extraction, preparation = map(
    _lazy, ("hilbert", "canonical", "locc", "blocks", "extraction",
            "preparation"))

# the module that defines each exported name
_HOME = {name: module for module, names in (
    (hilbert, ("BudgetError", "PureState", "amplitude_distance",
               "entanglement_entropy", "entropy", "relabel", "states_equal",
               "tensor")),
    (canonical, ("CanonicalComponent", "StateSpec", "copies", "epr", "ghz",
                 "level_epr", "level_ghz", "psi", "psi_general",
                 "psi_prime_spec", "psi_spec", "random_spec",
                 "spec_from_dict", "spec_from_json", "spec_to_dict",
                 "spec_to_json")),
    (locc, ("ImpossibleOutcomeError", "LocalOperator", "Povm", "Transcript",
            "apply_element", "apply_operator", "as_generator",
            "check_completeness", "check_local_orthogonality",
            "diagonal_operator", "outcome_probabilities",
            "permutation_operator", "sample", "trial_seeds")),
    (blocks, ("BlockDecomposition", "block_labels", "block_state",
              "block_probability", "block_yields", "decompose",
              "log2_multinomial", "verify_block_equivalence")),
    (extraction, ("Rates", "YieldReport", "asymptotic_rates",
                  "block_measurement_povm", "entropy_consistency",
                  "expected_means", "expected_yields", "run_extraction")),
    (preparation, ("ResourceCount", "Window", "build_target", "fidelity",
                   "fidelity_bound", "ghz_weighting_povm", "prepare_approx",
                   "prepare_exact_n2", "resource_count", "row_shorten_povm",
                   "target_window")),
) for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """An exported name, read from the module that defines it."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(home, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

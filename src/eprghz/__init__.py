"""Sparse multipartite simulator for reversible interconversion between a
family of tripartite states and canonical EPR / GHZ resources."""

from .hilbert import (BudgetError, PureState, amplitude_distance,
                      entanglement_entropy, entropy, relabel, states_equal,
                      tensor)
from .canonical import (CanonicalComponent, StateSpec, copies, epr, ghz,
                        level_epr, level_ghz, psi, psi_general,
                        psi_prime_spec, psi_spec, random_spec,
                        spec_from_dict, spec_from_json, spec_to_dict,
                        spec_to_json)
from .locc import (ImpossibleOutcomeError, LocalOperator, Povm, Transcript,
                   TranscriptEntry, apply_element, apply_operator,
                   as_generator, check_completeness,
                   check_local_orthogonality, diagonal_operator,
                   outcome_probabilities, permutation_operator, sample,
                   trial_seeds)
from .blocks import (BlockDecomposition, block_labels, block_state,
                     block_probability, block_yields, decompose,
                     log2_multinomial, verify_block_equivalence)
from .extraction import (Rates, YieldReport, asymptotic_rates,
                         block_measurement_povm, entropy_consistency,
                         expected_means, expected_yields, run_extraction)
from .preparation import (ResourceCount, Window, build_target, fidelity,
                          fidelity_bound, ghz_weighting_povm,
                          prepare_approx, prepare_exact_n2, resource_count,
                          row_shorten_povm, target_window)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition", "BudgetError", "CanonicalComponent",
    "ImpossibleOutcomeError", "LocalOperator", "Povm", "PureState", "Rates",
    "ResourceCount", "StateSpec", "Transcript", "TranscriptEntry", "Window",
    "YieldReport", "amplitude_distance", "apply_element", "apply_operator",
    "as_generator", "asymptotic_rates", "block_labels",
    "block_measurement_povm", "block_probability", "block_state",
    "block_yields", "build_target", "check_completeness",
    "check_local_orthogonality", "copies", "decompose", "diagonal_operator",
    "entanglement_entropy", "entropy", "entropy_consistency", "epr",
    "expected_means", "expected_yields", "fidelity", "fidelity_bound", "ghz",
    "ghz_weighting_povm", "level_epr", "level_ghz", "log2_multinomial",
    "outcome_probabilities", "permutation_operator", "prepare_approx",
    "prepare_exact_n2", "psi", "psi_general", "psi_prime_spec", "psi_spec",
    "random_spec", "relabel", "resource_count", "row_shorten_povm",
    "run_extraction", "sample", "spec_from_dict", "spec_from_json",
    "spec_to_dict", "spec_to_json", "states_equal", "target_window", "tensor",
    "trial_seeds", "verify_block_equivalence",
]

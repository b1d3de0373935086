"""Exact-arithmetic grading switches for nonassociative algebras in prime
characteristic, built on generalized Laguerre polynomials of derivations.

The pieces, bottom up: exact elimination over a field (`echelon`), finite
fields (`fields`), polynomials and the bivariate quotient rings behind the
coefficient tables (`polyring`), the Laguerre values with their identity
suite (`laguerre`), structure-constant algebras and linear maps (`galg`),
the switching operator and its verification (`switch`), and tori of
restricted Lie algebras (`toral`).
"""

from .fields import GF, FqElement, embed, embedding, \
    roots_in_splitting_field
from .galg import GradedAlgebra, LinearMap, Subspace, derivation_degree, \
    direct_sum, generalized_eigenspaces, is_derivation, is_grading, \
    truncated_poly, truncated_poly_derivation, witt
from .laguerre import CoefficientTable, c_coefficients, \
    check_all_identities, check_closed_form_congruence, check_lemma_forms, \
    check_lemma_product_identity, laguerre_at, laguerre_value, \
    scalar_product_form, strade_operator_form_check, truncated_exp, \
    zero_pair_closed_form
from .polyring import MultiPoly, NonInvertibleError, Polynomial, \
    QuotientRing
from .switch import HypothesisError, PPolynomial, Relation, SwitchResult, \
    VerificationError, build_LD, build_g, p_power_relation, \
    semisimple_exponent, switch_grading, verify_product_rule
from .toral import RestrictedLie, Torus, compare_switch_to_toral, \
    root_decomposition, strade_map, switch_torus

__version__ = "1.0.0"

__all__ = [
    "GF", "FqElement", "embed", "embedding", "roots_in_splitting_field",
    "GradedAlgebra", "LinearMap", "Subspace", "derivation_degree",
    "direct_sum", "generalized_eigenspaces", "is_derivation", "is_grading",
    "truncated_poly", "truncated_poly_derivation", "witt",
    "CoefficientTable", "c_coefficients", "check_all_identities",
    "check_closed_form_congruence", "check_lemma_forms",
    "check_lemma_product_identity", "laguerre_at", "laguerre_value",
    "scalar_product_form", "strade_operator_form_check", "truncated_exp",
    "zero_pair_closed_form",
    "MultiPoly", "NonInvertibleError", "Polynomial", "QuotientRing",
    "HypothesisError", "PPolynomial", "Relation", "SwitchResult",
    "VerificationError", "build_LD", "build_g", "p_power_relation",
    "semisimple_exponent", "switch_grading", "verify_product_rule",
    "RestrictedLie", "Torus", "compare_switch_to_toral",
    "root_decomposition", "strade_map", "switch_torus",
    "__version__",
]

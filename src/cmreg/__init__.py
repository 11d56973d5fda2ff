"""Exact computation of Castelnuovo-Mumford regularity, the a*-invariant
and their partial versions for homogeneous ideals in k[x_1, ..., x_n].
"""

__version__ = "0.1.0"

from .betti import BettiTable, betti_table, invariants_from_betti, lcm_multidegrees
from .fields import QQ, PrimeField, RationalField
from .groebner import (
    Ideal,
    initial_ideal,
    normal_form,
    reduced_groebner_basis,
    s_polynomial,
)
from .monomial_ideals import (
    NEG_INF,
    POS_INF,
    InputError,
    MathematicalFailure,
    MonomialIdeal,
    hilbert_numerator,
    is_borel_fixed,
    krull_dimension,
    minimalize,
    quotient_top_degree,
)
from .orders import m_index
from .parser import InputDocument, ParseError, parse_input
from .regularity import (
    CharacteristicError,
    FilterRegularityFailure,
    GinAgreementError,
    GinResult,
    RegularityReport,
    c_invariants,
    full_invariants,
    generic_initial_ideal,
    invariants_via_betti,
    invariants_via_gin,
)
from .rings import Polynomial, PolynomialRing, apply_linear_change

__all__ = [
    "QQ",
    "PrimeField",
    "RationalField",
    "PolynomialRing",
    "Polynomial",
    "apply_linear_change",
    "Ideal",
    "normal_form",
    "s_polynomial",
    "reduced_groebner_basis",
    "initial_ideal",
    "MonomialIdeal",
    "minimalize",
    "hilbert_numerator",
    "quotient_top_degree",
    "krull_dimension",
    "is_borel_fixed",
    "m_index",
    "NEG_INF",
    "POS_INF",
    "BettiTable",
    "betti_table",
    "invariants_from_betti",
    "lcm_multidegrees",
    "c_invariants",
    "full_invariants",
    "generic_initial_ideal",
    "invariants_via_gin",
    "invariants_via_betti",
    "InputError",
    "MathematicalFailure",
    "FilterRegularityFailure",
    "CharacteristicError",
    "GinAgreementError",
    "GinResult",
    "RegularityReport",
    "parse_input",
    "ParseError",
    "InputDocument",
]

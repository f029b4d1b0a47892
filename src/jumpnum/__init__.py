"""Jumping numbers of complete ideals in two-dimensional regular local
rings, computed exactly from resolution data.

The package models a resolution by its proximity structure, derives the
dual graph and the valuation table over the integers, attaches a
numerical semigroup to every vertex, and enumerates jumping numbers with
a closed formula.  An independent multiplier-ideal scan (``oracle``)
recomputes the same sets from the definition for differential testing.
"""

from .graph import (
    AssociatedPairSequence,
    DualGraph,
    InvalidGraphError,
    ResolutionGraph,
    adjacency,
    associated_pairs,
    branch,
    infinitely_near,
    intersection_form,
    inverse_proximity,
    is_free,
    proximity_matrix,
    validate,
)
from .ideals import IdealSpec, JumpingSet
from .jumping import (
    branch_value,
    jump_test_value,
    jumping_numbers,
    jumping_numbers_at,
    log_canonical_threshold,
    support_vertices,
)
from .lattice import (
    Basis,
    CanonicalData,
    Divisor,
    ValuationTable,
    antinef_closure,
    canonical,
    is_antinef,
    to_basis,
    valuation_ratio,
    valuation_table,
)
from .oracle import (
    MultiplierIdealResult,
    is_jumping_number,
    jumping_number_of_divisor,
    multiplier_divisor,
    oracle_jumping_numbers,
    semigroup_bruteforce,
)
from .resfile import (
    ParseError,
    parse_resolution,
    proximity_from_valuation,
    serialize_resolution,
)
from .semigroups import (
    NumericalSemigroup,
    branch_gcd,
    frobenius_multiple,
    membership,
    value_semigroup,
    vertex_semigroup,
)

__version__ = "0.1.0"

__all__ = [
    "AssociatedPairSequence",
    "Basis",
    "CanonicalData",
    "Divisor",
    "DualGraph",
    "IdealSpec",
    "InvalidGraphError",
    "JumpingSet",
    "MultiplierIdealResult",
    "NumericalSemigroup",
    "ParseError",
    "ResolutionGraph",
    "ValuationTable",
    "adjacency",
    "antinef_closure",
    "associated_pairs",
    "branch",
    "branch_gcd",
    "branch_value",
    "canonical",
    "frobenius_multiple",
    "infinitely_near",
    "intersection_form",
    "inverse_proximity",
    "is_antinef",
    "is_free",
    "is_jumping_number",
    "jump_test_value",
    "jumping_number_of_divisor",
    "jumping_numbers",
    "jumping_numbers_at",
    "log_canonical_threshold",
    "membership",
    "multiplier_divisor",
    "oracle_jumping_numbers",
    "parse_resolution",
    "proximity_from_valuation",
    "proximity_matrix",
    "semigroup_bruteforce",
    "serialize_resolution",
    "support_vertices",
    "to_basis",
    "validate",
    "valuation_ratio",
    "valuation_table",
    "value_semigroup",
    "vertex_semigroup",
]

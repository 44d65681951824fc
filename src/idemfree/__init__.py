"""Idempotent-sum free sequences over finite cyclic semigroups.

A finite cyclic semigroup of index k and period n has elements indexed
1..k+n-1; sums past the top wrap back into the tail [k, k+n-1] keeping
the residue mod n.  This package classifies integer-index multisets
("sequences") by whether some nonempty subsequence sums to the unique
idempotent, searches for the longest non-smooth free and minimal
sequences, and verifies the structure results exhaustively for small
parameters.
"""

from idemfree._kernels import backend_name
from idemfree.classify import (
    ClassificationReport,
    classify,
    decompose,
    find_smooth_generator,
    generators,
    idempotent_sum_witness,
    is_idempotent_sum,
    is_idempotent_sum_free,
    is_minimal_idempotent_sum,
    is_one_smooth,
    minimal_zero_sum,
    sequence_index,
    sequence_norm,
    smooth_kind,
    structure_condition,
    zero_sum_free,
)
from idemfree.errors import BudgetError, DomainError, ParseError
from idemfree.search import (
    InvariantResult,
    ResultCache,
    VerificationReport,
    critical_length,
    expected_thresholds,
    explore_bounds,
    free_smooth_threshold,
    generate_family,
    index_threshold,
    matched_cases,
    minimal_smooth_threshold,
    search_bad_sequences,
    structure_bound,
    sweep,
    verify_critical_cases,
    verify_structure,
)
from idemfree.semigroup import Element, SemigroupParams, add_index
from idemfree.sequences import Sequence, format_index_multiset, parse_index_multiset, semigroup_sum

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ClassificationReport",
    "DomainError",
    "Element",
    "InvariantResult",
    "ParseError",
    "ResultCache",
    "SemigroupParams",
    "Sequence",
    "VerificationReport",
    "add_index",
    "backend_name",
    "classify",
    "critical_length",
    "decompose",
    "expected_thresholds",
    "explore_bounds",
    "find_smooth_generator",
    "format_index_multiset",
    "free_smooth_threshold",
    "generate_family",
    "generators",
    "idempotent_sum_witness",
    "index_threshold",
    "is_idempotent_sum",
    "is_idempotent_sum_free",
    "is_minimal_idempotent_sum",
    "is_one_smooth",
    "matched_cases",
    "minimal_smooth_threshold",
    "minimal_zero_sum",
    "parse_index_multiset",
    "search_bad_sequences",
    "semigroup_sum",
    "sequence_index",
    "sequence_norm",
    "smooth_kind",
    "structure_bound",
    "structure_condition",
    "sweep",
    "verify_critical_cases",
    "verify_structure",
    "zero_sum_free",
]

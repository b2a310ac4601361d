"""Relabeled dice with standard sum frequencies, via cyclotomic factors."""

from .polyint import IntPoly, truncated_series_product
from .cyclotomic import (
    CyclotomicCache,
    check_identity_suite,
    cyclotomic,
    cyclotomic_by_division,
    euler_totient,
    mobius,
)
from .dice import Die, SumHistogram, die_to_poly, poly_to_die, sum_histogram
from .solver import (
    ExponentVector,
    SolutionPair,
    conjecture_sweep,
    decompose,
    decomposition_die_labels,
    enumerate_mixed,
    enumerate_pairs,
    enumerate_unequal,
    frequency_poly,
    negative_certificates,
)
from .counting import (
    count_n_dice,
    count_two_dice_trinomial,
    count_unbounded,
    check_triangular_identity,
    triangular,
)
from .oracle import brute_force_pairs

__version__ = "0.1.0"

__all__ = [
    "IntPoly",
    "truncated_series_product",
    "CyclotomicCache",
    "check_identity_suite",
    "cyclotomic",
    "cyclotomic_by_division",
    "euler_totient",
    "mobius",
    "Die",
    "SumHistogram",
    "die_to_poly",
    "poly_to_die",
    "sum_histogram",
    "ExponentVector",
    "SolutionPair",
    "decompose",
    "decomposition_die_labels",
    "enumerate_mixed",
    "enumerate_pairs",
    "enumerate_unequal",
    "frequency_poly",
    "negative_certificates",
    "count_n_dice",
    "count_two_dice_trinomial",
    "count_unbounded",
    "check_triangular_identity",
    "triangular",
    "brute_force_pairs",
    "conjecture_sweep",
    "__version__",
]

"""Mod-2 structure of the reciprocal squares theta series.

Over GF(2), let g = sum over k of x^(k^2). The set B (OEIS A108345) collects
the exponents with nonzero coefficient in 1/g. This package computes B at
scale through bit-packed series arithmetic, cross-checks the arithmetic
characterizations of membership (quadratic-form counts, ideal counts, class
numbers) through a registry of verifiable statements, and reproduces the
residue censuses that make membership for n = 15 mod 16 look like a fair
coin. The pentagonal-number analogue B*, whose bitmap carries the partition
parities, rides along on the same kernels.
"""

import importlib

# public name -> defining module; each module is imported on first use, so
# a process compiles only the layers it touches
_EXPORTS = {name: module for module, names in {
    "census": "AlphaSweep CensusTable SweepRow alpha_sweep interval_counts non15_count "
              "residue_class_counts",
    "bitseries": "BitmapFormatError BitSeries InsufficientBitmapError read_f2s write_f2s",
    "f2series": "NotInvertibleError SparseExponents build_B build_Bstar from_exponents "
                "generalized_pentagonals inverse_seventh_power invert_newton "
                "invert_recurrence mul_dense mul_sparse square squares",
    "quadarith": "Factorization IdealCountKind class_number "
                 "count_signed_representations count_square_tuples factorize "
                 "ideal_count is_square jacobi odd_exponent_prime_count",
    "theorems": "ALL_STATEMENTS SeriesContext StatementId Status TheoremReport Verdict "
                "applicable description reports_to_csv run_suite verify",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)

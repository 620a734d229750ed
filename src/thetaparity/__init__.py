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

from .census import (
    AlphaSweep,
    CensusTable,
    SweepRow,
    alpha_sweep,
    build_B,
    build_Bstar,
    interval_counts,
    non15_count,
    residue_class_counts,
)
from .f2series import (
    BitmapFormatError,
    BitSeries,
    InsufficientBitmapError,
    NotInvertibleError,
    SparseExponents,
    from_exponents,
    generalized_pentagonals,
    inverse_seventh_power,
    invert_newton,
    invert_recurrence,
    mul_dense,
    mul_sparse,
    read_f2s,
    square,
    squares,
    write_f2s,
)
from .quadarith import (
    DiagonalForm,
    Factorization,
    IdealCountKind,
    class_number,
    count_signed_representations,
    count_square_tuples,
    factorize,
    ideal_count,
    is_square,
    jacobi,
    odd_exponent_prime_count,
    square_tuple_count_table,
)
from .theorems import (
    ALL_STATEMENTS,
    SeriesContext,
    StatementId,
    Status,
    TheoremReport,
    Verdict,
    applicable,
    description,
    reports_to_csv,
    run_suite,
    verify,
)

__version__ = "0.1.0"

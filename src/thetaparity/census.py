"""Large-scale scans of B and B*: residue censuses and deviation sweeps.

B is the support of 1/g for the squares theta series g; B* is the analogue
for the generalized pentagonal generator, whose reciprocal carries the
partition parities. Bitmaps are built once through the inversion kernels and
then scanned read-only through their byte view: members = r mod 16 are bit
r & 7 of every second byte, so a residue class is one strided numpy slice and
every count is a sum over it.

beta(x) counts members of B that are congruent to 15 mod 16 and smaller than
16x. Among the 16x - 1 positive integers below 16x, exactly x lie in that
residue class, and membership there appears to hit about half of them;
alpha(x) = (beta(x) - x/2) / sqrt(x) measures the deviation. Comparisons of
alpha against decimal bounds and between sweep rows are done in exact integer
arithmetic, so boundary verdicts cannot hinge on float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import f2series
from .f2series import BitSeries, InsufficientBitmapError

__all__ = [
    "CensusTable",
    "SweepRow",
    "AlphaSweep",
    "build_B",
    "build_Bstar",
    "interval_counts",
    "alpha_sweep",
    "residue_class_counts",
    "non15_count",
]


def build_B(limit: int) -> BitSeries:
    """Membership bitmap of B: reciprocal of the squares theta series."""
    return f2series.invert_newton(f2series.squares(limit), limit)


def build_Bstar(limit: int) -> BitSeries:
    """Membership bitmap of B*: reciprocal of the pentagonal-number series."""
    return f2series.invert_newton(f2series.generalized_pentagonals(limit), limit)


def _residue(b: BitSeries, r: int) -> np.ndarray:
    # entry i is the coefficient of 16i + r: bit r & 7 of byte 2i + (r >> 3)
    col = np.frombuffer(b.raw, dtype=np.uint8)[r >> 3::2] >> (r & 7)
    col &= 1
    return col


@dataclass(frozen=True)
class CensusTable:
    """Counts of members = `residue` mod `modulus` per index interval.

    Interval j covers [j * interval_width, (j+1) * interval_width); members
    of the residue class never sit on an interval boundary, so half-open
    versus closed endpoints cannot change any count.
    """

    modulus: int
    residue: int
    x: int
    interval_width: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


def interval_counts(b: BitSeries, x: int, intervals: int) -> CensusTable:
    """Count members = 15 mod 16 in each block of 16x consecutive indices."""
    if x < 1 or intervals < 0:
        raise ValueError("need x >= 1 and intervals >= 0")
    width = 16 * x
    needed = width * intervals
    if b.length < needed:
        raise InsufficientBitmapError(needed, b.length)
    counts = _residue(b, 15)[:x * intervals].reshape(intervals, x).sum(axis=1)
    return CensusTable(16, 15, x, width, tuple(counts.tolist()))


class SweepRow(NamedTuple):
    x: int
    beta: int
    alpha: float


def _cmp_alpha_to(beta: int, x: int, num: int, den: int) -> int:
    """Sign of alpha(x) - num/den, exact. alpha = (2 beta - x) / (2 sqrt(x))."""
    if den <= 0:
        raise ValueError("den must be positive")
    a = (2 * beta - x) * den  # versus 2 * num * sqrt(x)
    a_sign = (a > 0) - (a < 0)
    b_sign = (num > 0) - (num < 0)
    if a_sign != b_sign:
        return 1 if a_sign > b_sign else -1
    if a_sign == 0:
        return 0
    aa = a * a
    bb = 4 * num * num * x
    if aa == bb:
        return 0
    return a_sign if aa > bb else -a_sign


def _cmp_rows(r1: SweepRow, r2: SweepRow) -> int:
    """Sign of alpha(r1) - alpha(r2), exact (cross-multiplied square compare)."""
    d1 = 2 * r1.beta - r1.x
    d2 = 2 * r2.beta - r2.x
    s1 = (d1 > 0) - (d1 < 0)
    s2 = (d2 > 0) - (d2 < 0)
    if s1 != s2:
        return 1 if s1 > s2 else -1
    if s1 == 0:
        return 0
    lhs = d1 * d1 * r2.x
    rhs = d2 * d2 * r1.x
    if lhs == rhs:
        return 0
    return s1 if lhs > rhs else -s1


@dataclass(frozen=True)
class AlphaSweep:
    """beta and alpha at every multiple of `step` up to `max_x`.

    argmin/argmax break ties toward the smaller x, decided exactly.
    """

    rows: tuple[SweepRow, ...]
    argmin: SweepRow
    argmax: SweepRow

    def all_within(self, low: tuple[int, int] = (-11, 10),
                   high: tuple[int, int] = (29, 50)) -> bool:
        """Strictly low < alpha < high on every row, in exact arithmetic.

        Bounds are fractions (num, den); the defaults are -1.1 and 0.58.
        """
        return all(
            _cmp_alpha_to(r.beta, r.x, *low) > 0
            and _cmp_alpha_to(r.beta, r.x, *high) < 0
            for r in self.rows
        )


def alpha_sweep(b: BitSeries, max_x: int, step: int) -> AlphaSweep:
    """Evaluate beta and alpha at x = step, 2*step, ..., max_x."""
    if step < 1 or max_x < step:
        raise ValueError("need 1 <= step <= max_x")
    if b.length < 16 * max_x:
        raise InsufficientBitmapError(16 * max_x, b.length)
    steps = max_x // step
    per_step = _residue(b, 15)[:steps * step].reshape(steps, step).sum(axis=1)
    rows = [SweepRow(x, beta, (beta - x / 2) / math.sqrt(x))
            for x, beta in zip(range(step, max_x + 1, step),
                               np.cumsum(per_step).tolist())]
    lo = hi = rows[0]
    for r in rows[1:]:
        if _cmp_rows(r, lo) < 0:
            lo = r
        if _cmp_rows(r, hi) > 0:
            hi = r
    return AlphaSweep(tuple(rows), lo, hi)


def residue_class_counts(b: BitSeries, limit: int) -> np.ndarray:
    """Members below `limit` in each residue class mod 16 (16-entry array)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > b.length:
        raise InsufficientBitmapError(limit, b.length)
    return np.array([_residue(b, r)[:(limit - r + 15) // 16].sum()
                     for r in range(16)], dtype=np.int64)


def non15_count(b: BitSeries, n_max: int) -> int:
    """Members n <= n_max with n not congruent to 15 mod 16."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max + 1 > b.length:
        raise InsufficientBitmapError(n_max + 1, b.length)
    return (b.truncate(n_max + 1).popcount()
            - int(_residue(b, 15)[:(n_max + 1) // 16].sum()))

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
alpha(x) = (beta(x) - x/2) / sqrt(x) measures the deviation. With
d = 2 beta - x, alpha has the sign of d and the square d^2 / 4x, so alpha
values are ordered by d |d| / x. Every alpha comparison, between sweep rows
and against the bounds -1.1 and 0.58, is that order on pairs (d, x), decided
by integer cross-multiplication, so no verdict hinges on float rounding.
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


# (d, x) pairs of the bounds: alpha = num / den is the pair (2 num, den^2)
_ALPHA_LOW = (-22, 100)     # -1.1
_ALPHA_HIGH = (58, 2500)    # 0.58


def _alpha_order(p: tuple[int, int], q: tuple[int, int]) -> int:
    """Sign of alpha(p) - alpha(q) for pairs (d, x), d = 2 beta - x; exact."""
    lhs = p[0] * abs(p[0]) * q[1]
    rhs = q[0] * abs(q[0]) * p[1]
    return (lhs > rhs) - (lhs < rhs)


@dataclass(frozen=True)
class AlphaSweep:
    """beta and alpha at every multiple of `step` up to `max_x`.

    argmin/argmax break ties toward the smaller x, decided exactly.
    """

    rows: tuple[SweepRow, ...]
    argmin: SweepRow
    argmax: SweepRow

    def all_within(self) -> bool:
        """Strictly -1.1 < alpha < 0.58 on every row, in exact arithmetic."""
        pairs = ((2 * r.beta - r.x, r.x) for r in self.rows)
        return all(_alpha_order(_ALPHA_LOW, p) < 0 and _alpha_order(p, _ALPHA_HIGH) < 0
                   for p in pairs)


def alpha_sweep(b: BitSeries, max_x: int, step: int) -> AlphaSweep:
    """Evaluate beta and alpha at x = step, 2*step, ..., max_x."""
    if step < 1 or max_x < step:
        raise ValueError("need 1 <= step <= max_x")
    if b.length < 16 * max_x:
        raise InsufficientBitmapError(16 * max_x, b.length)
    steps = max_x // step
    per_step = _residue(b, 15)[:steps * step].reshape(steps, step).sum(axis=1)
    xs = range(step, max_x + 1, step)
    betas = np.cumsum(per_step).tolist()
    rows = [SweepRow(x, beta, (beta - x / 2) / math.sqrt(x)) for x, beta in zip(xs, betas)]
    pairs = [(2 * beta - x, x) for x, beta in zip(xs, betas)]
    lo = hi = 0
    for i, p in enumerate(pairs):
        if _alpha_order(p, pairs[lo]) < 0:
            lo = i
        if _alpha_order(p, pairs[hi]) > 0:
            hi = i
    return AlphaSweep(tuple(rows), rows[lo], rows[hi])


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
    counts = residue_class_counts(b, n_max + 1)
    return int(counts.sum() - counts[15])

"""Large-scale scans of B and B*: residue censuses and deviation sweeps.

B is the support of 1/g for the squares theta series g; B* is the analogue
for the generalized pentagonal generator, whose reciprocal carries the
partition parities. `f2series.build_B` and `build_Bstar` build the bitmaps;
this module only scans them, read-only, through the byte view of their
words, with the standard library alone. Members = r mod 16 are bit r % 8
of every other byte from byte r // 8. One loop counts them in consecutive
groups: it reads at most one fixed block of bytes at a time, keeps that
half, and counts each group's part, as a Python int, under one mask with
period 8; a group longer than a read carries its count over.
`BitSeries.popcount` counts all members below a limit in the same blocks.
A scan holds a few blocks whatever its length.

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
from array import array
from itertools import accumulate
from typing import Iterator, NamedTuple

from .bitseries import _BLOCK, BitSeries, InsufficientBitmapError

__all__ = [
    "CensusTable",
    "SweepRow",
    "AlphaSweep",
    "interval_counts",
    "alpha_sweep",
    "residue_class_counts",
    "non15_count",
]


def _popcounts(b: BitSeries, residue: int, width: int, stop: int) -> Iterator[int]:
    """Members = residue mod 16 of b in [lo, min(lo + width, stop)), for
    lo = 0, width, 2 * width, ... below stop.

    Either width is a multiple of 16 that divides stop, or width >= stop.
    Row k holds coefficients 16k to 16k + 15; its member is bit residue % 8
    of byte 2k + residue // 8. When groups fit, a read holds whole groups and
    ends on a group end; a longer group spans reads, and its count carries.
    """
    data = b.data
    first = residue >> 3
    rows = max(stop - residue + 15, 0) >> 4  # rows whose member is below stop
    size = (width + 15) >> 4  # rows per group
    span = size * (_BLOCK // 2 // size) or _BLOCK // 2  # rows per read
    # as long as the longest piece: a longer mask slows every &
    mask = int.from_bytes(bytes([1 << (residue & 7)]) * min(rows, size, span), "little")
    count = 0
    for lo in range(0, rows, span):
        half = bytes(data[2 * lo:2 * min(lo + span, rows)])[first::2]
        start = 0
        # every group end in this read but the last group's
        for end in range(size - lo % size, min(len(half) + 1, rows - lo), size):
            yield count + (int.from_bytes(half[start:end], "little") & mask).bit_count()
            count, start = 0, end
        count += (int.from_bytes(half[start:], "little") & mask).bit_count()
    if stop:
        yield count


class CensusTable(NamedTuple):
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
    counts = _popcounts(b, 15, width, needed)
    return CensusTable(16, 15, x, width, tuple(counts))


class SweepRow(NamedTuple):
    x: int
    beta: int
    alpha: float


# (d, x) pairs of the bounds: alpha = num / den is the pair (2 num, den^2)
_ALPHA_LOW = (-22, 100)     # -1.1
_ALPHA_HIGH = (58, 2500)    # 0.58


def _pair(row: SweepRow) -> tuple[int, int]:
    """The (d, x) pair of a sweep row, d = 2 beta - x."""
    return (2 * row.beta - row.x, row.x)


def _alpha_order(p: tuple[int, int], q: tuple[int, int]) -> int:
    """Sign of alpha(p) - alpha(q) for pairs (d, x), d = 2 beta - x; exact."""
    lhs = p[0] * abs(p[0]) * q[1]
    rhs = q[0] * abs(q[0]) * p[1]
    return (lhs > rhs) - (lhs < rhs)


class AlphaSweep(NamedTuple):
    """beta and alpha at every multiple of `step` up to `max_x`.

    argmin/argmax break ties toward the smaller x, decided exactly.
    """

    rows: tuple[SweepRow, ...]
    argmin: SweepRow
    argmax: SweepRow

    def all_within(self) -> bool:
        """Strictly -1.1 < alpha < 0.58 on every row, in exact arithmetic."""
        pairs = map(_pair, self.rows)
        return all(_alpha_order(_ALPHA_LOW, p) < 0 and _alpha_order(p, _ALPHA_HIGH) < 0
                   for p in pairs)


def alpha_sweep(b: BitSeries, max_x: int, step: int) -> AlphaSweep:
    """Evaluate beta and alpha at x = step, 2*step, ..., max_x."""
    if step < 1 or max_x < step:
        raise ValueError("need 1 <= step <= max_x")
    if b.length < 16 * max_x:
        raise InsufficientBitmapError(16 * max_x, b.length)
    xs = range(step, max_x + 1, step)
    betas = array("q", accumulate(_popcounts(b, 15, 16 * step, 16 * xs[-1])))
    del b  # a bitmap passed as a temporary is freed before the rows are built
    rows = tuple(SweepRow(x, beta, (beta - x / 2) / math.sqrt(x))
                 for x, beta in zip(xs, betas))
    lo = hi = rows[0]
    lo_pair = hi_pair = _pair(lo)
    for row in rows:
        p = _pair(row)
        if _alpha_order(p, lo_pair) < 0:
            lo, lo_pair = row, p
        if _alpha_order(p, hi_pair) > 0:
            hi, hi_pair = row, p
    return AlphaSweep(rows, lo, hi)


def _check_limit(b: BitSeries, limit: int) -> None:
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > b.length:
        raise InsufficientBitmapError(limit, b.length)


def residue_class_counts(b: BitSeries, limit: int):
    """Members below `limit` in each residue class mod 16 (16-entry int64 array)."""
    import numpy as np

    _check_limit(b, limit)
    return np.array([sum(_popcounts(b, r, limit, limit)) for r in range(16)],
                    dtype=np.int64)


def non15_count(b: BitSeries, n_max: int) -> int:
    """Members n <= n_max with n not congruent to 15 mod 16."""
    limit = n_max + 1
    _check_limit(b, limit)
    return b.popcount(limit) - sum(_popcounts(b, 15, limit, limit))

"""Bit-packed arithmetic on truncated power series over GF(2).

A series is a pair (length, words): `length` coefficients (exponents
0 .. length-1) packed into little-endian uint64 words, bit i of word w
holding the coefficient of x^(64w + i). `bitseries.BitSeries` stores one
read-only buffer of those words' bytes, which is also the .f2s payload on
disk; the word kernel and the Frobenius spread here read it as numpy's
zero-copy '<u8' view `words` and return fresh word arrays, which the
series then keeps without copying. A 2^23-coefficient series occupies one
megabyte; the Python int with bit n the coefficient of x^n exists only
inside the big-int oracles `mul_dense` and `invert_recurrence`, and tests.

The generators of interest here are sparse (perfect squares, generalized
pentagonal numbers), so multiplication by a generator is an XOR of shifted
copies, one per exponent below the truncation point. One word kernel,
`_xor_shifted`, does every such product, and returns any window of its
words, lo to hi. It groups the exponents by k mod 8, and for each residue
r present XORs the unshifted source bytes of that residue's exponents,
each at byte offset k >> 3, into one sum the size of the window. Shifting
distributes over XOR, so that sum, shifted left by r bits with the carry
from the word below, is the residue's part of the product: at most eight
shifts per window, and numpy XORs bytes at any offset about as fast as
aligned words. Products are
built in tiles of `_TILE` words, each small enough that its sum stays in
cache while every exponent of a residue streams the source past it.

Reciprocals come from precision doubling: over GF(2) the Newton step for
h -> 1/g collapses to h <- g*h^2, because g*h^2 - 1/g = g*(h - 1/g)^2
doubles the error valuation. Squaring itself is the Frobenius map,
h^2 = h(x^2), so the step never squares a dense series. Splitting g by
exponent parity, g = A(x^2) + x*B(x^2), gives
g*h(x^2) = (A*h)(x^2) + x*(B*h)(x^2): the kernel runs on two leaves of half
the length, and a 256-entry table spreads each leaf's bits to every second
output bit. The precisions are chosen from the top, limit, ceil(limit/2),
..., 1, so each step exactly doubles what is known and no pass is spent on
a last odd coefficient. The output is allocated once at full length and h
is its prefix: a step from p known coefficients needs the leaves only from
coefficient floor(p/2) on (a middle product), and their spreads OR the new
bits in place. The same split by class mod 8 gives 1/g^7 = g*h(x^8) from
leaves of an eighth of the length, each spread by 8 straight into the
output, and the plain product (`mul_sparse`) is the split by class mod 1.
Each leaf is computed and spread one tile at a time, so a build holds the
output, one tile and one residue sum, and the spread and carry run in
fixed-size chunks.

A quadratic-time sequential recurrence (`invert_recurrence`) and the
big-int carryless product `mul_dense` are kept alongside as independent
oracles. Neither uses the word kernel; the test suite asserts bit-identical
agreement with the Newton route and the sparse product.

`SERIES` names the five series that `gen` writes: theta and the
pentagonal generator as dense bitmaps, and the three reciprocals, B
(`build_B`), B* (`build_Bstar`) and 1/g^7, each a function of the limit.

Truncation is always explicit. No operation grows storage implicitly, and
reading a coefficient at or past `length` raises instead of returning zero.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bitseries import (F2S_MAGIC, BitmapFormatError, BitSeries,
                        InsufficientBitmapError, read_f2s, write_f2s)

__all__ = [
    "BitSeries",
    "SparseExponents",
    "NotInvertibleError",
    "BitmapFormatError",
    "InsufficientBitmapError",
    "F2S_MAGIC",
    "squares",
    "generalized_pentagonals",
    "from_exponents",
    "square",
    "mul_sparse",
    "mul_dense",
    "invert_newton",
    "invert_recurrence",
    "inverse_seventh_power",
    "build_B",
    "build_Bstar",
    "SERIES",
    "write_f2s",
    "read_f2s",
]


class NotInvertibleError(ValueError):
    """The series has constant term 0, so it has no reciprocal."""


# byte -> one word of 2^s bytes holding its bit i at bit 2^s * i, for s = 0..3
_SPREAD = [sum((np.arange(256) >> i & 1) << (i << s) for i in range(8))
           .astype(f"<u{1 << s}") for s in range(4)]
# source bytes per step of the spread and words per step of a carry: fixed,
# so neither allocates more than a small temporary however long the series
_CHUNK = 1 << 13
# words per tile of a kernel product: each leaf is computed and spread a tile
# at a time, so a build holds its output and two tile-sized buffers. 2^16
# words is 512 KiB, a quarter of the 2 MiB per-core L2 of the Xeon VM it was
# measured on. There the inversion of theta to 2^28+1 took 15.3, 12.4, 11.1
# and 13.3 s with tiles of 2^14, 2^15, 2^16 and 2^17 words; 2^15 was ahead
# at 2^26+1 (1.24 against 1.44 s), but the largest builds set the choice
_TILE = 1 << 16


def _mask(nbits: int) -> int:
    return (1 << nbits) - 1


def _clear_padding(words: np.ndarray, nbits: int) -> np.ndarray:
    if nbits & 63:
        words[-1] &= _mask(nbits & 63)
    return words


def _bits_from_positions(positions, limit: int) -> bytearray:
    # the 8 * ceil(limit/64) bytes of a series with bit p set for each p < limit
    buf = bytearray(8 * ((limit + 63) // 64))
    for p in positions:
        if 0 <= p < limit:
            buf[p >> 3] |= 1 << (p & 7)
    return buf


@dataclass(frozen=True)
class SparseExponents:
    """Strictly increasing exponent list of a sparse GF(2) series.

    `limit` is the exclusive bound below which the list is complete: every
    exponent of the underlying series that is < limit appears. The list says
    nothing about exponents at or beyond limit.
    """

    exponents: tuple[int, ...]
    limit: int

    def __post_init__(self):
        e = tuple(map(operator.index, self.exponents))  # floats raise TypeError
        object.__setattr__(self, "exponents", e)
        object.__setattr__(self, "limit", operator.index(self.limit))
        if self.limit < 1:
            raise ValueError("limit must be >= 1")
        if any(a >= b for a, b in zip(e, e[1:])):
            raise ValueError("exponents must be strictly increasing")
        if e and (e[0] < 0 or e[-1] >= self.limit):
            raise ValueError("exponents must lie in [0, limit)")


def squares(limit: int) -> SparseExponents:
    """Exponents k^2 < limit, the support of the squares theta series."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    exps = tuple(k * k for k in range(math.isqrt(limit - 1) + 1))
    return SparseExponents(exps, limit)


def generalized_pentagonals(limit: int) -> SparseExponents:
    """Exponents k(3k +/- 1)/2 < limit: 0, 1, 2, 5, 7, 12, 15, ..."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    exps = [0]
    k = 1
    while True:
        p = k * (3 * k - 1) // 2
        if p >= limit:
            break
        exps.append(p)
        q = k * (3 * k + 1) // 2
        if q < limit:
            exps.append(q)
        k += 1
    return SparseExponents(tuple(exps), limit)


def from_exponents(e: SparseExponents, limit: int) -> BitSeries:
    """Materialize a sparse series as a dense bitmap of `limit` coefficients."""
    _check_complete(e, limit)
    return BitSeries(limit, _bits_from_positions(e.exponents, limit))


def square(s: BitSeries, limit: int) -> BitSeries:
    """Square of the series, truncated: coefficient n moves to 2n."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return BitSeries(limit, _mul_frobenius(s.words, (0,), 1, limit))


def _xor_shifted(src: np.ndarray, exponents, nbits: int, lo: int, hi: int) -> np.ndarray:
    """Words lo..hi-1 of the XOR of src << k over the exponents k < nbits.

    On word arrays, `exponents` increasing, the product truncated to nbits
    and hi at most its word count. An exponent k = 8q + r moves source byte
    i to byte i + q shifted left by r, carrying into the byte above, and
    shifts distribute over XOR. So for each residue r present the unshifted
    source bytes of its offsets q are XORed into one sum over words
    lo-1..hi-1, from its byte d = q - 8 (lo - 1) on, and that sum, shifted
    left by r with its carry from the word below, is XORed into the result
    a chunk at a time: the result and the sum are the only window-sized
    buffers. Source bits past nbits land in cleared bits.
    """
    nwords = (nbits + 63) // 64
    src = src[:nwords].view(np.uint8)
    n = len(src)
    offsets: dict[int, list[int]] = {}
    for k in exponents:
        if k >= nbits or k >> 6 >= hi:
            break
        if (k >> 6) + n // 8 >= lo:  # the source reaches word lo-1
            offsets.setdefault(k & 7, []).append((k >> 3) - 8 * (lo - 1))
    acc = np.zeros(hi - lo, dtype="<u8")
    total = np.empty(hi - lo + 1, dtype="<u8")  # words lo-1 .. hi-1
    sums = total.view(np.uint8)
    for r, offs in offsets.items():
        total[:] = 0
        for d in offs:
            start, stop = max(0, d), min(sums.size, d + n)
            sums[start:stop] ^= src[start - d:stop - d]
        for i in range(0, hi - lo, _CHUNK):
            j = min(i + _CHUNK, hi - lo)
            acc[i:j] ^= total[i + 1:j + 1] << r
            if r:
                acc[i:j] ^= total[i:j] >> (64 - r)
    if hi == nwords:
        _clear_padding(acc, nbits)
    return acc


def _check_complete(e: SparseExponents, limit: int) -> None:
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if e.limit < limit:
        raise ValueError(
            f"exponent list is complete only below {e.limit}, need {limit}"
        )


def mul_sparse(s: BitSeries, e: SparseExponents, limit: int) -> BitSeries:
    """Product with a sparse series: XOR of one shifted copy per exponent.

    Built tile by tile as the one leaf of `_mul_frobenius` with s = 0.
    """
    _check_complete(e, limit)
    return BitSeries(limit, _mul_frobenius(s.words, e.exponents, 0, limit))


def mul_dense(a: BitSeries, b: BitSeries, limit: int) -> BitSeries:
    """Carryless product of two dense series, truncated.

    Quadratic in the worst case; iterates over the support of the sparser
    factor, which is what the identity checks here actually multiply.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    x = a.bits & _mask(limit)
    y = b.bits & _mask(limit)
    if x.bit_count() > y.bit_count():
        x, y = y, x
    acc = 0
    for k in BitSeries(limit, x).support().tolist():
        acc ^= y << k
    return BitSeries(limit, acc & _mask(limit))


def _check_invertible(e: SparseExponents, limit: int) -> None:
    _check_complete(e, limit)
    if not e.exponents or e.exponents[0] != 0:
        raise NotInvertibleError("constant term is 0, no reciprocal exists")


def _mul_frobenius(h: np.ndarray, exponents, s: int, nbits: int,
                   out: np.ndarray | None = None, lo: int = 0) -> np.ndarray:
    """OR g * h(x^(2^s)), truncated to nbits, into out; g has `exponents`.

    Splits g by exponent class mod 2^s, g = sum over c of x^c G_c(x^(2^s)),
    so that g*h(x^(2^s)) = sum over c of x^c (G_c*h)(x^(2^s)). Each class
    present is one leaf, the word kernel's G_c*h on ceil((nbits - c)/2^s)
    coefficients. The leaf is computed from word lo on, _TILE words at a
    time, and each tile's bit i is spread to bit 2^s*i + c of `out` (a fresh
    zero array when None) through a 256-entry table, a few thousand bytes at
    a time, before the next tile is computed. Spreading ORs, so output bits
    that are already right stay right, and `h` may be a prefix of `out` as
    long as each leaf reads none of the bits the spreads change.
    """
    if out is None:
        out = np.zeros((nbits + 63) // 64, dtype="<u8")
    m = 1 << s
    exponents = exponents[:bisect.bisect_left(exponents, nbits)]
    for c in range(min(m, nbits)):
        exps = [k >> s for k in exponents if k & (m - 1) == c]
        if not exps:
            continue
        table = _SPREAD[s] << c
        dst = out.view(table.dtype)
        leaf_bits = (nbits - c + m - 1) >> s
        leaf_words = (leaf_bits + 63) // 64
        for a in range(lo, leaf_words, _TILE):
            b = min(a + _TILE, leaf_words)
            part = dst[8 * a:8 * b]
            tile = _xor_shifted(h, exps, leaf_bits, a, b).view(np.uint8)[:len(part)]
            for i in range(0, len(part), _CHUNK):
                part[i:i + _CHUNK] |= table[tile[i:i + _CHUNK]]
            del tile  # one tile alive at a time
    return out


def invert_newton(e: SparseExponents, limit: int) -> BitSeries:
    """Reciprocal of the sparse series g by precision doubling, in place.

    Over GF(2) the Newton step is h <- g*h^2 = g*h(x^2), since
    g*h^2 - 1/g = g*(h - 1/g)^2 doubles the number of correct coefficients.
    The precisions are built from the top: limit, ceil(limit/2),
    ceil(limit/4), ..., 1, run in reverse from h = 1, so every step exactly
    doubles a known prefix and the last one lands on `limit`. The output of
    `limit` coefficients is allocated once and h is its prefix. A step from
    p known coefficients to P splits g by parity (see `_mul_frobenius`) and
    needs the two half-length leaves only from coefficient floor(p/2) on:
    below it both reproduce h. So each leaf computes the words from
    floor(floor(p/2)/64) on, and its spread ORs them into the output.
    """
    _check_invertible(e, limit)
    ladder = []
    prec = limit
    while prec > 1:
        ladder.append(prec)
        prec = (prec + 1) // 2
    h = np.zeros((limit + 63) // 64, dtype="<u8")
    h[0] = 1
    for prec in reversed(ladder):
        # p = ceil(prec/2) is known, and floor(p/2) = floor((prec + 1)/4)
        _mul_frobenius(h, e.exponents, 1, prec, h, (prec + 1) // 4 // 64)
    return BitSeries(limit, h)


def invert_recurrence(e: SparseExponents, limit: int) -> BitSeries:
    """Reciprocal of g by the sequential recurrence, as an independent oracle.

    Writing g = sum over exponents k of x^k with smallest exponent 0, the
    reciprocal sum b_n x^n satisfies b_0 = 1 and, over GF(2),
    b_n = sum of b_{n-k} over positive exponents k <= n. This implementation
    streams the scatter side of that sum: whenever b_p turns out to be 1, the
    positions p + k all inherit its contribution, applied as one word-level
    XOR of the exponent mask. Same arithmetic, different evaluation order,
    which is what makes it a useful cross-check against the Newton route.
    """
    _check_invertible(e, limit)
    emask = int.from_bytes(_bits_from_positions(e.exponents[1:], limit), "little")
    full = _mask(limit)
    low64 = _mask(64)
    e64 = emask & low64
    out = bytearray((limit + 7) // 8)
    out[0] |= 1
    acc = emask  # pending contributions scattered from b_0
    for base in range(0, limit, 64):
        window = (acc >> base) & low64
        start = 1 if base == 0 else 0
        for j in range(start, min(64, limit - base)):
            if window >> j & 1:
                n = base + j
                out[n >> 3] |= 1 << (n & 7)
                acc ^= (emask << n) & full
                window ^= (e64 << j) & low64
    return BitSeries(limit, int.from_bytes(out, "little"))


def inverse_seventh_power(limit: int) -> BitSeries:
    """Reciprocal of the 7th power of the squares theta series g.

    Uses 1/g^7 = g * (1/g)^8 = g * h(x^8) with h = 1/g, which only needs h
    to ceil(limit/8) coefficients. Splitting g by exponent class mod 8 (see
    `_mul_frobenius`) turns the product into word-kernel leaves of length
    about limit/8, one per class present: squares fall in the classes 0, 1
    and 4, and each of the three leaves is spread by 8 straight into the
    output.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    e = squares(limit)
    h = invert_newton(e, (limit + 7) // 8).words
    return BitSeries(limit, _mul_frobenius(h, e.exponents, 3, limit))


def build_B(limit: int) -> BitSeries:
    """Membership bitmap of B: reciprocal of the squares theta series."""
    return invert_newton(squares(limit), limit)


def build_Bstar(limit: int) -> BitSeries:
    """Membership bitmap of B*: reciprocal of the pentagonal-number series."""
    return invert_newton(generalized_pentagonals(limit), limit)


# gen's series by name, each a function of the limit. The lambdas look the
# module's functions up when they run, so a function rebound in this module,
# by a tracer or a test, is the one that runs
SERIES = {
    "theta": lambda limit: from_exponents(squares(limit), limit),
    "pentagonal": lambda limit: from_exponents(generalized_pentagonals(limit), limit),
    "inv-theta": build_B,
    "inv-pentagonal": build_Bstar,
    "inv-theta7": inverse_seventh_power,
}

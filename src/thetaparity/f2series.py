"""Bit-packed arithmetic on truncated power series over GF(2).

A series is a pair (length, bits): `length` is the number of represented
coefficients (exponents 0 .. length-1) and `bits` packs them into a single
Python integer, bit n holding the coefficient of x^n. That integer is the
public face and the form that squaring, the word kernel and .f2s I/O work
on; a 2^23-coefficient series occupies about one megabyte. Reads go through
one lazily cached little-endian byte view, `BitSeries.raw`, in which
coefficient n is bit n & 7 of byte n >> 3: a lookup indexes one byte instead
of shifting the whole integer, and `support` and the census scans slice it.

The generators of interest here are sparse (perfect squares, generalized
pentagonal numbers), so multiplication by a generator is an XOR of shifted
copies, one per exponent below the truncation point. One word kernel,
`_xor_shifted`, does every such product. It converts the source to uint64
words, groups the exponents by k mod 64, and for each residue r present
builds one copy of the source shifted left by r bits. Each exponent of that
group then XORs the copy into the accumulator in place at word offset
k >> 6, so no per-exponent shift allocates. The copy buffer is reused for
the next residue: the pentagonal exponents hit all 64 residues, and holding
every shifted copy at once would cost 64 source-sized buffers.

Reciprocals come from precision doubling: over GF(2) the Newton step for
h -> 1/g collapses to h <- g*h^2, because g*h^2 - 1/g = g*(h - 1/g)^2
doubles the error valuation. Squaring itself is the Frobenius map,
coefficient n moves to 2n, implemented by spreading bits through a
256-entry table.

A quadratic-time sequential recurrence (`invert_recurrence`) and the
big-int carryless product `mul_dense` are kept alongside as independent
oracles. Neither uses the word kernel; the test suite asserts bit-identical
agreement with the Newton route and the sparse product.

Truncation is always explicit. No operation grows storage implicitly, and
reading a coefficient at or past `length` raises instead of returning zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    "write_f2s",
    "read_f2s",
]

F2S_MAGIC = b"F2S1"


class NotInvertibleError(ValueError):
    """The series has constant term 0, so it has no reciprocal."""


class BitmapFormatError(ValueError):
    """A .f2s file is malformed: bad magic, wrong size, or dirty padding."""


class InsufficientBitmapError(ValueError):
    """A scan or check needs more coefficients than the bitmap holds."""

    def __init__(self, needed: int, have: int, what: str = "bitmap"):
        super().__init__(
            f"{what} holds {have} coefficients, need at least {needed}"
        )
        self.needed = needed
        self.have = have


def _build_spread_table() -> np.ndarray:
    # byte -> 16-bit word with bit i moved to bit 2i
    table = np.zeros(256, dtype=np.uint16)
    for byte in range(256):
        spread = 0
        for i in range(8):
            spread |= (byte >> i & 1) << (2 * i)
        table[byte] = spread
    return table


_SPREAD16 = _build_spread_table()


def _mask(nbits: int) -> int:
    return (1 << nbits) - 1


def _bits_from_positions(positions, limit: int) -> int:
    buf = bytearray((limit + 7) // 8)
    for p in positions:
        if 0 <= p < limit:
            buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


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
        if self.limit < 1:
            raise ValueError("limit must be >= 1")
        prev = -1
        for e in self.exponents:
            if e <= prev:
                raise ValueError("exponents must be strictly increasing")
            prev = e
        if self.exponents:
            if self.exponents[0] < 0 or self.exponents[-1] >= self.limit:
                raise ValueError("exponents must lie in [0, limit)")


@dataclass(frozen=True)
class BitSeries:
    """Truncated GF(2) series; bit n of `bits` is the coefficient of x^n.

    Every read goes through `raw`, the same bits as bytes, built on first
    use and kept for the life of the series.
    """

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("set bits beyond the declared length")

    def __repr__(self):
        # the bits integer can run to millions of digits; keep reprs small
        return (f"{type(self).__name__}(length={self.length}, "
                f"popcount={self.popcount()})")

    def coefficient(self, n: int) -> int:
        """Coefficient of x^n. Out-of-range n raises, never reads as zero."""
        if not 0 <= n < self.length:
            raise IndexError(
                f"coefficient {n} outside series of length {self.length}"
            )
        return self.raw[n >> 3] >> (n & 7) & 1

    @cached_property
    def raw(self) -> bytes:
        """`bits` as (length + 7) // 8 little-endian bytes, padding bits zero."""
        return self.bits.to_bytes((self.length + 7) // 8, "little")

    def popcount(self) -> int:
        """Number of nonzero coefficients."""
        return self.bits.bit_count()

    def support(self) -> np.ndarray:
        """Sorted exponents of the nonzero coefficients (int64 array)."""
        flat = np.unpackbits(np.frombuffer(self.raw, dtype=np.uint8),
                             bitorder="little")
        return np.nonzero(flat)[0]


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
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return BitSeries(limit, _bits_from_positions(e.exponents, limit))


def _square_bits(bits: int, limit: int) -> int:
    # Frobenius map: source bits at n >= ceil(limit/2) cannot land below limit.
    n_src = (limit + 1) // 2
    src = bits & _mask(n_src)
    raw = src.to_bytes((n_src + 7) // 8, "little")
    spread = _SPREAD16[np.frombuffer(raw, dtype=np.uint8)]
    return int.from_bytes(spread.astype("<u2").tobytes(), "little") & _mask(limit)


def square(s: BitSeries, limit: int) -> BitSeries:
    """Square of the series, truncated: coefficient n moves to 2n."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return BitSeries(limit, _square_bits(s.bits, limit))


def _xor_shifted(bits: int, exponents, nbits: int) -> int:
    """XOR of bits << k over the exponents k < nbits, truncated to nbits.

    `exponents` must be increasing. The sum runs on uint64 words: one
    shifted copy of the source per residue k mod 64, XORed in place at word
    offset k >> 6 for each exponent of that residue.
    """
    nwords = (nbits + 63) // 64
    src = np.frombuffer((bits & _mask(nbits)).to_bytes(8 * nwords, "little"),
                        dtype="<u8")
    offsets: dict[int, list[int]] = {}
    for k in exponents:
        if k >= nbits:
            break
        offsets.setdefault(k & 63, []).append(k >> 6)
    acc = np.zeros(nwords, dtype="<u8")
    shifted = np.empty_like(acc)
    carry = np.empty_like(acc)
    for r, words in offsets.items():
        np.left_shift(src, r, out=shifted)
        if r:
            np.right_shift(src[:-1], 64 - r, out=carry[1:])
            shifted[1:] |= carry[1:]
        for q in words:
            acc[q:] ^= shifted[:nwords - q]
    return int.from_bytes(acc.tobytes(), "little") & _mask(nbits)


def mul_sparse(s: BitSeries, e: SparseExponents, limit: int) -> BitSeries:
    """Product with a sparse series: XOR of one shifted copy per exponent."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return BitSeries(limit, _xor_shifted(s.bits, e.exponents, limit))


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


def _require_complete(e: SparseExponents, limit: int) -> None:
    if e.limit < limit:
        raise ValueError(
            f"exponent list is complete only below {e.limit}, need {limit}"
        )


def invert_newton(e: SparseExponents, limit: int) -> BitSeries:
    """Reciprocal of the sparse series g by precision doubling.

    Starts from h = 1, exact to one coefficient since the constant term is 1,
    and repeats h <- g*h^2 at doubled truncation. Each pass squares the error
    term, so the number of correct coefficients doubles.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    _require_complete(e, limit)
    if not e.exponents or e.exponents[0] != 0:
        raise NotInvertibleError("constant term is 0, no reciprocal exists")
    exps = e.exponents
    h = 1
    prec = 1
    while prec < limit:
        prec = min(2 * prec, limit)
        h = _xor_shifted(_square_bits(h, prec), exps, prec)
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
    if limit < 1:
        raise ValueError("limit must be >= 1")
    _require_complete(e, limit)
    if not e.exponents or e.exponents[0] != 0:
        raise NotInvertibleError("constant term is 0, no reciprocal exists")
    emask = _bits_from_positions([k for k in e.exponents if k > 0], limit)
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

    Uses 1/g^7 = g * (1/g)^8: invert once, apply the Frobenius squaring three
    times, then one sparse multiply by g.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    e = squares(limit)
    h = invert_newton(e, limit).bits
    for _ in range(3):
        h = _square_bits(h, limit)
    return BitSeries(limit, _xor_shifted(h, e.exponents, limit))


def write_f2s(s: BitSeries, path) -> None:
    """Persist a bitmap: magic, u64 LE coefficient count, 64-bit LE words.

    The payload is ceil(count/64) words; bit i of word w is the coefficient
    of x^(64w + i). Padding bits past the count are zero by construction.
    """
    nwords = (s.length + 63) // 64
    with open(path, "wb") as fh:
        fh.write(F2S_MAGIC)
        fh.write(s.length.to_bytes(8, "little"))
        fh.write(s.bits.to_bytes(8 * nwords, "little"))


def read_f2s(path) -> BitSeries:
    """Load a persisted bitmap, verifying framing and clean padding."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise BitmapFormatError(f"{path}: truncated header")
    if blob[:4] != F2S_MAGIC:
        raise BitmapFormatError(f"{path}: bad magic {blob[:4]!r}")
    count = int.from_bytes(blob[4:12], "little")
    if count < 1:
        raise BitmapFormatError(f"{path}: empty series")
    nwords = (count + 63) // 64
    body = blob[12:]
    if len(body) != 8 * nwords:
        raise BitmapFormatError(
            f"{path}: expected {8 * nwords} payload bytes, found {len(body)}"
        )
    bits = int.from_bytes(body, "little")
    if bits >> count:
        raise BitmapFormatError(
            f"{path}: nonzero padding past coefficient {count}"
        )
    return BitSeries(count, bits)

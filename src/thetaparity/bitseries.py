"""Truncated GF(2) series as bytes, and their .f2s files, without numpy.

A series of `length` coefficients is stored as one read-only buffer: the
8 * ceil(length/64) bytes of its little-endian uint64 words, so coefficient
n is bit n & 7 of byte n >> 3 and padding bits past `length` are zero. The
same bytes are the .f2s payload on disk. `read_f2s` can load only the
whole words that hold a prefix, still checking the file's size and end
padding: `verify` reads coefficients 0..hi, `census` the 16 * x * intervals
it counts and `alpha` 16 * max_x. Everything here works on that buffer
with the standard library alone, so a process that only loads and scans
bitmaps (`census`, `alpha`) never imports numpy. The word kernel in
`f2series` reads the buffer as numpy's zero-copy '<u8' view, `words`, which
is built on first use.
"""

from __future__ import annotations

import sys

__all__ = [
    "BitSeries",
    "BitmapFormatError",
    "InsufficientBitmapError",
    "F2S_MAGIC",
    "read_f2s",
    "write_f2s",
]

F2S_MAGIC = b"F2S1"

# bytes per popcount in a whole-series scan: fixed, so a scan holds a few
# blocks however long the series
_BLOCK = 1 << 16

# buffer formats of unsigned 64-bit little-endian words, numpy's '<u8'
_WORD_FORMATS = {"<Q", "<L"} | ({"Q", "L", "@Q", "@L", "=Q", "=L"}
                                if sys.byteorder == "little" else set())


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


def _byte_view(words, length: int, nbytes: int) -> memoryview | None:
    # the bytes of an int below 2^length, of contiguous '<u8' words, or of
    # `nbytes` bytes; None for anything else
    if isinstance(words, int):
        if 0 <= words and words.bit_length() <= length:
            return memoryview(words.to_bytes(nbytes, "little"))
        return None
    try:
        view = memoryview(words)
    except TypeError:
        return None
    if view.ndim != 1 or not view.c_contiguous or view.nbytes != nbytes:
        return None
    if view.format == "B" or view.itemsize == 8 and view.format in _WORD_FORMATS:
        return view.cast("B").toreadonly()
    return None


class BitSeries:
    """Truncated GF(2) series: `data` holds the bytes of ceil(length/64) words.

    The constructor takes an int whose bit n is x^n, or a buffer of the
    words: contiguous '<u8' words or their 8 * ceil(length/64) bytes. It
    keeps a read-only view of a given buffer, without copying it. Padding
    bits past `length` must be zero. Series are immutable.
    """

    __slots__ = ("length", "data", "_words")

    def __init__(self, length: int, words):
        if length < 1:
            raise ValueError("length must be >= 1")
        nbytes = 8 * ((length + 63) // 64)
        data = _byte_view(words, length, nbytes)
        if data is None:
            raise ValueError(f"{length} coefficients need an int below 2^{length}, "
                             f"{nbytes // 8} contiguous '<u8' words or {nbytes} bytes")
        if length & 63 and int.from_bytes(data[-8:], "little") >> (length & 63):
            raise ValueError(f"nonzero padding past coefficient {length}")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_words", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def words(self):
        """The read-only '<u8' word array: numpy's zero-copy view of `data`."""
        if self._words is None:
            import numpy as np

            object.__setattr__(self, "_words", np.frombuffer(self.data, dtype="<u8"))
        return self._words

    def __eq__(self, other):
        # compared a word at a time: a byte at a time is several times slower
        return (isinstance(other, BitSeries) and self.length == other.length
                and self.data.cast("Q") == other.data.cast("Q"))

    def __repr__(self):
        # a series can run to millions of coefficients; keep reprs small
        return (f"{type(self).__name__}(length={self.length}, "
                f"popcount={self.popcount()})")

    def coefficient(self, n: int) -> int:
        """Coefficient of x^n. Out-of-range n raises, never reads as zero."""
        if not 0 <= n < self.length:
            raise IndexError(
                f"coefficient {n} outside series of length {self.length}"
            )
        return self.data[n >> 3] >> (n & 7) & 1

    @property
    def bits(self) -> int:
        """The coefficients as one Python int, bit n being x^n (for oracles)."""
        return int.from_bytes(self.data, "little")

    def popcount(self, stop: int | None = None) -> int:
        """Number of nonzero coefficients below `stop` (all of them for None),
        counted a block of bytes at a time; only a last partial byte is masked."""
        stop = self.length if stop is None else min(stop, self.length)
        if stop < 0:
            raise ValueError("stop must be >= 0")
        data, end = self.data, stop >> 3
        count = sum(int.from_bytes(data[i:min(i + _BLOCK, end)], "little").bit_count()
                    for i in range(0, end, _BLOCK))
        return count + (data[end] & ((1 << (stop & 7)) - 1)).bit_count() if stop & 7 else count

    def support(self):
        """Sorted exponents of the nonzero coefficients (int64 array)."""
        import numpy as np

        flat = np.unpackbits(np.frombuffer(self.data, dtype=np.uint8), bitorder="little")
        return np.nonzero(flat)[0]


def write_f2s(s: BitSeries, path) -> None:
    """Persist a bitmap: magic, u64 LE coefficient count, 64-bit LE words.

    The payload is ceil(count/64) words; bit i of word w is the coefficient
    of x^(64w + i). Padding bits past the count are zero by construction.
    """
    with open(path, "wb") as fh:
        fh.write(F2S_MAGIC)
        fh.write(s.length.to_bytes(8, "little"))
        fh.write(s.data)


def read_f2s(path, limit: int | None = None) -> BitSeries:
    """Load a persisted bitmap as its payload bytes, checking framing and padding.

    With `limit`, only the whole words holding the first max(limit, 1)
    coefficients are read; a limit past the count reads the whole series.
    """
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12:
            raise BitmapFormatError(f"{path}: truncated header")
        if head[:4] != F2S_MAGIC:
            raise BitmapFormatError(f"{path}: bad magic {head[:4]!r}")
        count = int.from_bytes(head[4:12], "little")
        if count < 1:
            raise BitmapFormatError(f"{path}: empty series")
        nbytes = 8 * ((count + 63) // 64)
        if fh.seek(0, 2) != 12 + nbytes:
            raise BitmapFormatError(f"{path}: payload is not {nbytes} bytes")
        length = count if limit is None else min(count, 64 * ((max(limit, 1) + 63) // 64))
        if length < count and count & 63:
            # a prefix of whole words has no padding: check the file's own
            fh.seek(-8, 2)
            if int.from_bytes(fh.read(8), "little") >> (count & 63):
                raise BitmapFormatError(f"{path}: nonzero padding past coefficient {count}")
        fh.seek(12)
        payload = fh.read(8 * ((length + 63) // 64))
    try:
        return BitSeries(length, payload)
    except ValueError as exc:
        raise BitmapFormatError(f"{path}: {exc}") from None

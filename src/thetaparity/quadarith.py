"""Exact integer oracles: form counts, Jacobi symbols, class numbers.

Everything in this module is independent of the series arithmetic, so it can
sit on the other side of an identity check: representation counts for
diagonal quadratic forms in up to three variables, Jacobi symbols,
deterministic factorization, multiplicative ideal-count divisor sums for the
imaginary quadratic orders of discriminant -4 and -8, and class numbers of
arbitrary negative discriminants by reduced-form enumeration.

Both per-query representation counts are sums over one enumerator of the
nonnegative solutions, which walks the grid of leading coordinates in
fixed-size blocks (memory O(sqrt n), n < 2^63). Counting conventions are
fixed once and never converted implicitly:

* `count_square_tuples(n, form)` counts ORDERED tuples (s_1, ..., s_k) of
  nonnegative perfect-square values with sum a_i * s_i = n. Positions are
  distinguished even when coefficients repeat, so x^2 + y^2 + z^2 = 11 has
  count 3 (the square values 9, 1, 1 in three arrangements).
* `count_signed_representations(n, form)` counts integer solution vectors,
  signs and order distinct; with primitive=True only gcd-1 vectors count.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiagonalForm",
    "Factorization",
    "IdealCountKind",
    "count_square_tuples",
    "square_tuple_count_table",
    "count_signed_representations",
    "jacobi",
    "is_square",
    "is_prime",
    "factorize",
    "odd_exponent_prime_count",
    "ideal_count",
    "class_number",
]


@dataclass(frozen=True)
class DiagonalForm:
    """Diagonal quadratic form a_1 x_1^2 + ... + a_k x_k^2 with 1 <= k <= 3."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.coefficients) <= 3:
            raise ValueError("forms have one to three variables")
        if any(not 1 <= a < 1 << 63 for a in self.coefficients):
            raise ValueError("coefficients must be integers in [1, 2^63)")


def _coefficients(form) -> tuple[int, ...]:
    if isinstance(form, DiagonalForm):
        return form.coefficients
    coeffs = tuple(int(a) for a in form)
    DiagonalForm(coeffs)  # reuse its validation
    return coeffs


def is_square(n: int) -> bool:
    """Exact integer test for n being a perfect square."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _check_n(n: int) -> int:
    if not 0 <= n < 1 << 63:
        raise ValueError("n must satisfy 0 <= n < 2**63")
    return n


# grid cells per block of _solutions; a block never holds less than one row
_BLOCK_CELLS = 1 << 16
_MAX_ROOT = math.isqrt((1 << 63) - 1)


def _exact_sqrt(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # values are nonnegative int64, so the rounded float sqrt of a perfect
    # square is its root; the cap keeps roots * roots inside int64
    roots = np.rint(np.sqrt(values.astype(np.float64))).astype(np.int64)
    roots = np.minimum(roots, _MAX_ROOT)
    return roots, roots * roots == values


def _solutions(n: int, coeffs: tuple[int, ...]):
    """Nonnegative solutions of sum a_i x_i^2 = n as (k, m) int64 blocks.

    Column j of a block is one solution. The leading k - 1 coordinates range
    over a broadcast grid, every axis from 0, cut along its first axis into
    blocks of at most _BLOCK_CELLS cells (one row when a row alone is
    larger); the last coordinate is the exact root of what remains. Memory
    is O(sqrt n) for three variables.
    """
    *head, last = coeffs
    axes = [np.arange(math.isqrt(n // a) + 1, dtype=np.int64) for a in head]
    rows = max(1, _BLOCK_CELLS // math.prod(map(len, axes[1:])))
    for lo in range(0, len(axes[0]) if axes else 1, rows):
        block = [x[lo:lo + rows] for x in axes[:1]] + axes[1:]
        grid = np.ix_(*block)
        rem = np.atleast_1d(n - sum(a * x * x for a, x in zip(head, grid)))
        quot = rem // last
        roots, square = _exact_sqrt(np.maximum(quot, 0))
        keep = (rem >= 0) & (quot * last == rem) & square
        # zip stops at the k - 1 grid axes, which k = 1 does not have
        yield np.stack([*(x[i] for x, i in zip(block, np.nonzero(keep))),
                        roots[keep]])


def count_square_tuples(n: int, form) -> int:
    """Ordered tuples of square values (s_1, ..., s_k) with sum a_i s_i = n.

    The number of nonnegative solutions from the block enumerator; the table
    builder below is the fast path and is checked against this one.
    """
    blocks = _solutions(_check_n(n), _coefficients(form))
    return sum(block.shape[1] for block in blocks)


def square_tuple_count_table(form, n_max: int) -> np.ndarray:
    """counts[n] = count_square_tuples(n, form) for all 0 <= n <= n_max.

    Built as an iterated convolution with the square-value indicator, one
    shifted vector add per square value per variable.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    coeffs = _coefficients(form)
    counts = np.zeros(n_max + 1, dtype=np.int64)
    counts[0] = 1
    for a in coeffs:
        nxt = np.zeros(n_max + 1, dtype=np.int64)
        for r in range(math.isqrt(n_max // a) + 1):
            s = a * r * r
            nxt[s:] += counts[: n_max + 1 - s]
        counts = nxt
    return counts


def count_signed_representations(n: int, form, primitive: bool = False) -> int:
    """Integer solution vectors of sum a_i x_i^2 = n, signs and order distinct.

    Each nonnegative solution stands for 2^(number of nonzero coordinates)
    signed ones. With primitive=True only vectors with gcd(x_1, ..., x_k) = 1
    are counted; the zero vector is never primitive, so n = 0 counts 1 or 0.
    """
    total = 0
    for xs in _solutions(_check_n(n), _coefficients(form)):
        if primitive:
            xs = xs[:, np.gcd.reduce(xs) == 1]
        total += int((1 << (xs > 0).sum(axis=0)).sum())
    return total


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a | n) for odd positive n, by binary reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("lower argument must be an odd positive integer")
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set, deterministic for n < 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # nontrivial factor of an odd composite with no small prime factors;
    # x -> x^2 + 1 with Floyd cycle detection, restarting on a new seed
    # whenever the gcd collapses to n, so the whole search is deterministic
    seed = 1
    while True:
        x = y = seed
        d = 1
        while d == 1:
            x = (x * x + 1) % n
            y = (y * y + 1) % n
            y = (y * y + 1) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d
        seed += 1


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes increasing."""

    value: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 1
        for p, c in self.pairs:
            if p <= prev or c < 1:
                raise ValueError("pairs must have increasing primes, exponents >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prod *= p**c
            prev = p
        if prod != self.value:
            raise ValueError("pairs do not multiply back to the value")


_TRIAL_LIMIT = 1 << 20


@functools.lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Deterministic factorization: trial division, then rho splitting.

    Trial division runs to min(sqrt(n), 2^20); whatever survives is either
    prime (Miller-Rabin, deterministic in this range) or gets split by
    Pollard's rho with fixed seeds.
    """
    if not 1 <= n < 1 << 63:
        raise ValueError("n must satisfy 1 <= n < 2**63")
    value = n
    found: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    p = 5
    while p <= _TRIAL_LIMIT and p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                found[q] = found.get(q, 0) + 1
                n //= q
        p += 6
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return Factorization(value, tuple(sorted(found.items())))


def odd_exponent_prime_count(f: Factorization) -> int:
    """Number of primes appearing to an odd power."""
    return sum(1 for _, c in f.pairs if c % 2 == 1)


class IdealCountKind(enum.Enum):
    """Which imaginary quadratic order's ideal count to take.

    The value is the top argument of the character: jacobi(value, p) decides
    how a prime p splits.
    """

    GAUSSIAN = -1
    MINUS_TWO = -2


def ideal_count(n: int, kind: IdealCountKind) -> int:
    """Number of ideals of odd norm n in the chosen order.

    Multiplicative over prime powers p^c: a split prime (character +1)
    contributes c + 1, an inert prime (character -1) contributes 1 for even c
    and kills the count for odd c. Equivalently this is the divisor sum of
    the character over d | n.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    total = 1
    for p, c in factorize(n).pairs:
        chi = jacobi(kind.value, p)
        if chi == 1:
            total *= c + 1
        elif c % 2 == 1:
            return 0
        # inert prime with even exponent contributes a factor of 1
    return total


def class_number(d: int) -> int:
    """Class number of the order of discriminant d < 0.

    Counts reduced primitive positive definite forms (a, b, c) with
    b^2 - 4ac = d: the conditions are |b| <= a <= c, gcd(a, b, c) = 1, and
    b >= 0 whenever |b| = a or a = c. Enumeration over a up to sqrt(-d/3)
    with a vectorized scan over the admissible b values. The scan holds
    b^2 - d <= -4d/3 in int64, so d must exceed -3*2^61.
    """
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError("discriminant must be negative and 0 or 1 mod 4")
    if d <= -3 * 2**61:
        raise ValueError("discriminant must exceed -3*2^61 (int64 scan)")
    h = 0
    for a in range(1, math.isqrt(-d // 3) + 1):
        start = -a + (a + d) % 2  # smallest b >= -a with b = d mod 2
        bs = np.arange(start, a + 1, 2, dtype=np.int64)
        num = bs * bs - d
        cs = num // (4 * a)
        ok = (num % (4 * a) == 0) & (cs >= a)
        ok &= np.gcd(np.gcd(np.abs(bs), a), cs) == 1
        ok &= (bs >= 0) | ((bs != -a) & (cs != a))
        h += int(np.count_nonzero(ok))
    return h

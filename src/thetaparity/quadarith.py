"""Exact integer oracles: form counts, Jacobi symbols, class numbers.

Everything in this module is independent of the series arithmetic, so it can
sit on the other side of an identity check: representation counts for
diagonal quadratic forms in up to three variables, Jacobi symbols,
deterministic factorization, multiplicative ideal-count divisor sums for the
imaginary quadratic orders of discriminant -4 and -8, and class numbers of
arbitrary negative discriminants by reduced-form enumeration.

Both per-query representation counts are sums over one enumerator of the
nonnegative solutions, which walks the grid of leading coordinates in
fixed-size blocks (memory O(sqrt n), n < 2^63). The batch functions compute
the same quantities for every n of a range at once, and each is tested
against its per-query oracle: count tables as products of theta series by
real FFT, primitive signed triple counts by Mobius inversion of the signed
table, factor counts and ideal counts from a smallest-prime-factor sieve,
and class numbers by one enumeration of reduced forms for a whole residue
class of discriminants. Counting conventions are fixed once and never
converted implicitly:

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
    "count_signed_representations",
    "theta_product_table",
    "primitive_signed_r3_table",
    "jacobi",
    "is_square",
    "is_prime",
    "factorize",
    "odd_exponent_prime_count",
    "ideal_count",
    "FactorColumns",
    "factor_columns",
    "class_number",
    "class_numbers",
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

    The number of nonnegative solutions from the block enumerator;
    theta_product_table below is the fast path and is checked against it.
    """
    blocks = _solutions(_check_n(n), _coefficients(form))
    return sum(block.shape[1] for block in blocks)


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


def _fft_size(m: int) -> int:
    # smallest 2^i or 3 * 2^i that is >= m, lengths numpy's FFT runs fast
    return min(1 << (m - 1).bit_length(), 3 << ((m - 1) // 3).bit_length())


def _rounded(values: np.ndarray) -> np.ndarray:
    # exact integers behind an FFT result, or a loud failure when the
    # rounding error leaves no margin
    ints = np.rint(values)
    err = float(np.abs(values - ints).max(initial=0.0))
    if err >= 0.25:
        raise AssertionError(f"FFT table lost precision: rounding error {err:.3g}")
    return ints.astype(np.int64)


def theta_product_table(form, n_max: int, signed: bool = False) -> np.ndarray:
    """counts[n] for 0 <= n <= n_max as a product of one theta series per variable.

    Unsigned, variable a_i contributes sum over k >= 0 of x^(a_i k^2) and
    counts[n] = count_square_tuples(n, form); signed, it contributes
    1 + 2 * sum over k >= 1 of x^(a_i k^2) and counts[n] =
    count_signed_representations(n, form). The product is taken by real FFT
    over a length at which nothing wraps into [0, n_max]. Every build checks
    its rounding and raises AssertionError when an entry lies 1/4 or more
    from an integer. count_square_tuples and count_signed_representations
    are the exact per-query oracles.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    coeffs = _coefficients(form)
    size = _fft_size(len(coeffs) * n_max + 1)
    product = spectrum = None
    for i, a in enumerate(coeffs):
        if i == 0 or a != coeffs[i - 1]:
            theta = np.zeros(n_max + 1)
            k = np.arange(math.isqrt(n_max // a) + 1)
            theta[a * k * k] = 2.0 if signed else 1.0
            theta[0] = 1.0
            spectrum = np.fft.rfft(theta, size)
            del theta
        if product is None:
            product = spectrum.copy()
        else:
            product *= spectrum
    del spectrum
    return _rounded(np.fft.irfft(product, size)[: n_max + 1])


def primitive_signed_r3_table(n_max: int) -> np.ndarray:
    """counts[N] = count_signed_representations(N, (1, 1, 1), primitive=True).

    For 0 <= N <= n_max. A vector with gcd d and sum of squares N is d times
    a primitive vector with sum N / d^2, so Mobius inversion over the square
    divisors of N turns the signed table into the primitive one; N = 0 has
    no primitive vector and counts 0.
    """
    signed = theta_product_table((1, 1, 1), n_max, signed=True)
    root = math.isqrt(n_max)
    spf = _smallest_prime_factors(root)
    mu = np.ones(root + 1, dtype=np.int64)
    for p in np.flatnonzero(spf == np.arange(root + 1))[2:]:
        mu[::p] *= -1
        mu[:: p * p] = 0
    counts = np.zeros_like(signed)
    for d in np.flatnonzero(mu[1:]) + 1:
        step = int(d) * int(d)
        counts[::step] += mu[d] * signed[: n_max // step + 1]
    counts[0] = 0
    return counts


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


_TRIAL_LIMIT = 1 << 16


@functools.lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Deterministic factorization: trial division, then rho splitting.

    Trial division runs to min(sqrt(n), 2^16); whatever survives is either
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


def _smallest_prime_factors(n_max: int) -> np.ndarray:
    # spf[m] is the least prime factor of m for m >= 2; spf[0] = 0, spf[1] = 1
    spf = np.zeros(n_max + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    return np.where(spf == 0, np.arange(n_max + 1), spf)


@dataclass(frozen=True)
class FactorColumns:
    """Factor counts of every n in [lo, hi]; index i holds n = lo + i.

    `distinct_primes` and `odd_exponent_primes` count the primes dividing n
    and those to an odd power (0 at n = 0 and 1); `ideal_counts[kind]` is
    ideal_count(n, kind) at odd n and 0 at even n.
    """

    distinct_primes: np.ndarray
    odd_exponent_primes: np.ndarray
    ideal_counts: dict


def factor_columns(lo: int, hi: int) -> FactorColumns:
    """Factor counts and ideal counts of every n in [lo, hi] from one sieve.

    A smallest-prime-factor sieve to hi strips one prime at a time from all
    n at once. A prime's character, like ideal_count's, is jacobi(kind, p),
    which for kind -1 and -2 depends only on p mod 8.
    """
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    n = np.arange(lo, hi + 1, dtype=np.int64)
    spf = _smallest_prime_factors(hi)
    distinct = np.zeros_like(n)
    odd = np.zeros_like(n)
    ideal = {kind: n % 2 for kind in IdealCountKind}
    split = {kind: np.array([r % 2 == 1 and jacobi(kind.value, r) == 1
                             for r in range(8)]) for kind in IdealCountKind}
    live = np.flatnonzero(n > 1)
    rem = n[live]
    while live.size:
        p = spf[rem]
        e = np.zeros_like(rem)
        step = np.arange(rem.size)
        while step.size:
            rem[step] //= p[step]
            e[step] += 1
            step = step[rem[step] % p[step] == 0]
        distinct[live] += 1
        odd[live] += e & 1
        for kind, table in split.items():
            # split primes give c + 1; inert ones 1 for even c, 0 for odd c
            ideal[kind][live] *= np.where(table[p % 8], e + 1, 1 - (e & 1))
        more = rem > 1
        live, rem = live[more], rem[more]
    return FactorColumns(distinct, odd, ideal)


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


# solutions (a, b, c) that class_numbers collects before one bincount
_FORM_BLOCK = 1 << 20


def class_numbers(scale: int, residue: int, lo: int, hi: int) -> np.ndarray:
    """h[i] = class_number(-scale * n) at n = lo + i when n = residue mod 8.

    Every other entry is 0. One enumeration of reduced forms (Cohen, A
    Course in Computational Algebraic Number Theory, 5.3) covers the whole
    residue class: for each a and each 0 <= b <= a, the c >= a with
    4ac - b^2 = scale * n for an n of the class form one arithmetic
    progression, cut to the window. A form with 0 < b < a < c stands for
    itself and (a, -b, c). Counts are summed per block of at most
    _FORM_BLOCK forms into an array the size of the class in the window.
    """
    if scale < 1 or not 0 <= residue < 8 or (-scale * residue) % 4 not in (0, 1):
        raise ValueError("-scale * n must be a discriminant for n = residue mod 8")
    if not 0 <= lo <= hi or scale * hi >= 1 << 60:
        raise ValueError("need 0 <= lo <= hi and scale * hi < 2^60")
    h = np.zeros(hi - lo + 1, dtype=np.int64)
    first = lo + (residue - lo) % 8
    if first > hi:
        return h
    size = (hi - first) // 8 + 1
    d_lo, d_hi = scale * first, scale * (first + 8 * (size - 1))
    mod = 8 * scale
    target = scale * residue % mod
    counts = np.zeros(size, dtype=np.int64)
    index: list[np.ndarray] = []
    weight: list[np.ndarray] = []

    def flush():
        if index:
            counts[:] += np.rint(np.bincount(np.concatenate(index), np.concatenate(weight),
                                             minlength=size)).astype(np.int64)
            index.clear()
            weight.clear()

    pending = 0
    for a in range(1, math.isqrt(d_hi // 3) + 1):
        # 4ac = b^2 + target (mod 8 * scale) has solutions c iff g divides
        # the right side, and then they form one class mod `step`
        g = math.gcd(4 * a, mod)
        step = mod // g
        bs = np.arange(a + 1, dtype=np.int64)
        rhs = (target + bs * bs) % mod
        bs, rhs = bs[rhs % g == 0], rhs[rhs % g == 0]
        if not bs.size:
            continue
        c0 = rhs // g * pow(4 * a // g, -1, step) % step
        c_first = np.maximum(a, -(-(d_lo + bs * bs) // (4 * a)))
        c_first += (c0 - c_first) % step
        runs = np.maximum(0, ((d_hi + bs * bs) // (4 * a) - c_first) // step + 1)
        total = int(runs.sum())
        if not total:
            continue
        starts = np.repeat(np.cumsum(runs) - runs, runs)
        b = np.repeat(bs, runs)
        c = np.repeat(c_first, runs) + step * (np.arange(total) - starts)
        gcd_ab = np.repeat(np.gcd(bs, a), runs)
        primitive = (gcd_ab == 1) | (np.gcd(gcd_ab, c) == 1)
        twins = (b > 0) & (b < a) & (c > a)
        index.append((4 * a * c - b * b - d_lo) // mod)
        weight.append(primitive * (1.0 + twins))
        pending += total
        if pending >= _FORM_BLOCK:
            flush()
            pending = 0
    flush()
    h[first - lo :: 8] = counts
    return h

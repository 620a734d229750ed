"""Exact integer oracles: form counts, Jacobi symbols, class numbers.

Everything in this module is independent of the series arithmetic, so it can
sit on the other side of an identity check: representation counts for
diagonal quadratic forms in up to three variables, Jacobi symbols,
deterministic factorization, multiplicative ideal-count divisor sums for the
imaginary quadratic orders of discriminant -4 and -8, and class numbers of
arbitrary negative discriminants by reduced-form enumeration.

Each input rule has one check: scalar integers pass operator.index (a float
raises TypeError), a form is one to three of them in [1, 2^63), and a grid
is a progression at a power-of-two step on its class in _TABLE_CLASSES. Both
per-query counts sum over one blocked enumerator of the nonnegative
solutions. Each batch function takes the grid it fills and is tested against
its per-query oracle: square-tuple counts, and primitive triple counts by
Mobius inversion of those, on the one class each table is built on (the odd
n, 3 or 7 mod 8: Gauss's odd square 8T + 1 fixes every parity there, so a
count is a coefficient of a product of two series placed exactly in int64
and at most one more by FFT); factor and ideal counts from one sieve over
the odd n; class numbers from reduced forms of every content and the same
Mobius sum over odd f. Counting conventions are fixed once:

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
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Factorization",
    "IdealCountKind",
    "count_square_tuples",
    "count_signed_representations",
    "tuple_class_table",
    "primitive_r3_class_table",
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


def _coefficients(form) -> tuple[int, ...]:
    # the one check of a form sum a_i x_i^2: one to three integers in [1, 2^63)
    coeffs = tuple(map(operator.index, form))
    if not 1 <= len(coeffs) <= 3:
        raise ValueError("forms have one to three variables")
    if any(not 1 <= a < 1 << 63 for a in coeffs):
        raise ValueError("coefficients must be integers in [1, 2^63)")
    return coeffs


def is_square(n: int) -> bool:
    """Exact integer test for n being a perfect square."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _check_n(n: int) -> int:
    n = operator.index(n)
    if not 0 <= n < 1 << 63:
        raise ValueError("n must satisfy 0 <= n < 2**63")
    return n


# grid cells per block of _solutions; a block never holds less than one row
_BLOCK_CELLS = 1 << 16
_MAX_ROOT = math.isqrt((1 << 63) - 1)
# entries per block of factor_columns' pass over the remainders above 1
_COLUMN_BLOCK = 1 << 16


def _exact_sqrt(values: np.ndarray) -> np.ndarray:
    # the root of each nonnegative int64 value that is a perfect square, else
    # -1; the cap keeps roots * roots inside int64
    roots = np.minimum(np.rint(np.sqrt(values, dtype=np.float64)).astype(np.int64),
                       _MAX_ROOT)
    return np.where(roots * roots == values, roots, -1)


def _solutions(n: int, coeffs: tuple[int, ...]):
    """Nonnegative solutions of sum a_i x_i^2 = n as (k, m) int64 blocks.

    Column j of a block is one solution. The leading k - 1 coordinates range
    over a broadcast grid, every axis from 0, cut along its first axis into
    blocks of at most _BLOCK_CELLS cells (one row when a row alone is
    larger); the last coordinate is the exact root of what remains. Each
    block builds its own slice of the first axis, so memory is one block for
    one or two variables and O(sqrt n), one grid row, for three.
    """
    *head, last = coeffs
    lens = [math.isqrt(n // a) + 1 for a in head]
    rest = [np.arange(m, dtype=np.int64) for m in lens[1:]]
    rows = max(1, _BLOCK_CELLS // math.prod(lens[1:]))
    for lo in range(0, lens[0] if lens else 1, rows):
        block = [np.arange(lo, min(lo + rows, m), dtype=np.int64)
                 for m in lens[:1]] + rest
        grid = np.ix_(*block)
        rem = np.atleast_1d(n - sum(a * x * x for a, x in zip(head, grid)))
        quot = rem // last
        roots = _exact_sqrt(np.maximum(quot, 0))
        keep = (rem >= 0) & (quot * last == rem) & (roots >= 0)
        # zip stops at the k - 1 grid axes, which k = 1 does not have
        yield np.stack([*(x[i] for x, i in zip(block, np.nonzero(keep))),
                        roots[keep]])


def count_square_tuples(n: int, form) -> int:
    """Ordered tuples of square values (s_1, ..., s_k) with sum a_i s_i = n.

    The number of nonnegative solutions from the block enumerator;
    tuple_class_table below is the fast path on the classes the statements
    read and is checked against it.
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


def _exact_product(first, second, n_max: int) -> np.ndarray:
    # the product to n_max of two sparse series, each its increasing
    # exponents up to n_max (every term 1), in int64 with no rounding: one
    # term of the shorter series places the other's terms on distinct
    # entries, so one fancy-indexed add per term suffices
    exponents, others = sorted((first, second), key=len)
    counts = np.zeros(n_max + 1, dtype=np.int64)
    for e in exponents.tolist():
        counts[e + others[: np.searchsorted(others, n_max - e, side="right")]] += 1
    return counts


def _fft_product(table: np.ndarray, exponents, n_max: int) -> np.ndarray:
    # table times a sparse series to n_max by one real FFT at a length at
    # which nothing wraps into [0, n_max]; both factors stop at n_max.
    # Callers pass the table as a temporary, so `del` frees it.
    size = _fft_size(2 * n_max + 1)
    product = np.fft.rfft(table, size)
    del table
    product *= np.fft.rfft(np.bincount(exponents, minlength=n_max + 1), size)
    out = np.fft.irfft(product, size)[: n_max + 1]
    del product
    return _rounded(out)


# (coefficients, scale) -> (modulus, residue): a class table counts at N =
# scale * n for the n = residue mod modulus, the class its statements read;
# also of class numbers h(-N) and of the factor columns, which sieve odd n
_TABLE_CLASSES = {((1, 2), 1): (2, 1), ((1, 4), 1): (2, 1), ((1, 1, 1), 1): (8, 3),
                  ((1, 2, 8), 1): (8, 3), ((1, 2, 4), 1): (8, 7), ((1, 1, 1), 2): (8, 7),
                  ("class_numbers", 1): (8, 3), ("class_numbers", 8): (8, 7), ("factors",): (2, 1)}


def _table_class(key: tuple, grid: range) -> tuple[int, int]:
    # the table's (modulus, residue), once the grid is checked to lie in it
    if key not in _TABLE_CLASSES:
        raise ValueError(f"no class table for {key}, grid {grid}")
    modulus, residue = _TABLE_CLASSES[key]
    if (not grid or min(grid.start, grid.step) < 0 or grid.start % modulus != residue
            or grid.step % modulus or grid.step & (grid.step - 1)):
        raise ValueError(f"class table {key} is on n = {residue} mod {modulus} at "
                         f"power-of-two steps, not on {grid}")
    return modulus, residue


def _primitive(counts, grid: range) -> np.ndarray:
    # the sum over odd squarefree f of mu(f) counts(n / f^2) at the n of the
    # grid that f^2 divides, every f^2-th from index -start / step mod f^2 (a
    # power-of-two step); counts(grid) comes last, as it may be their table
    terms = []
    for f in range(3, math.isqrt(grid[-1]) + 1, 2):
        q, pairs = f * f, factorize(f).pairs
        i = -grid.start * pow(grid.step, -1, q) % q
        if i < len(grid) and all(c == 1 for _, c in pairs):
            sub = range(grid[i] // q, grid[-1] // q + 1, grid.step)
            terms.append((i, q, (-1) ** len(pairs) * counts(sub)))
    total = counts(grid)
    for i, q, term in terms:
        total[i::q] += term
    return total


def _on_grid(counts: np.ndarray, grid: range, modulus: int) -> np.ndarray:
    # a class table's entries on a grid of its class; a part is copied
    part = counts[grid.start // modulus :: grid.step // modulus][: len(grid)]
    return counts if part.size == counts.size else part.copy()


def tuple_class_table(form, scale: int, grid: range) -> np.ndarray:
    """counts[i] = count_square_tuples(scale * grid[i], form) on a grid of
    the class of one of the six tables the statements read.

    On each class every solution has fixed parities and an odd square (2a +
    1)^2 is 8 T_a + 1, T_a = a (a + 1) / 2 (Gauss), so the count at n =
    modulus * m + residue is a multiple of the coefficient of x^m in a
    product of two or three series, built to the m of grid[-1]. A third
    takes one real FFT, which raises AssertionError when an entry lies 1/4
    or more from an integer. count_square_tuples is the exact oracle.
    """
    key = (_coefficients(form), scale)
    modulus, _ = _table_class(key, grid)
    m_max = grid[-1] // modulus
    t = np.arange(math.isqrt(4 * m_max + 2) + 1, dtype=np.int64)
    t = t * (t + 1) // 2  # every T_a <= 2 m_max + 1
    squares = np.arange(math.isqrt(m_max) + 1, dtype=np.int64) ** 2
    products = {  # (multiple of a three-series product, the series)
        # an odd N = 2m + 1 has x odd: m = 4 T_a + y^2, or 4 T_a + 2 y^2
        ((1, 2), 1): (1, 4 * t, squares),
        ((1, 4), 1): (1, 4 * t, 2 * squares),
        ((1, 1, 1), 1): (1, t, t, t),  # all odd: T_a + T_b + T_c = m
        ((1, 2, 8), 1): (1, t, 2 * t, squares),
        ((1, 2, 4), 1): (1, t, 2 * t, 4 * t),  # all odd
        # N = 16m + 14 has two odd terms and one 2 mod 4, in three places:
        # T_a + T_b + 4 T_c = 2m + 1, one of T_a, T_b even, in two orders
        ((1, 1, 1), 2): (6, t[t % 2 == 0] // 2, t[t % 2 == 1] // 2, 2 * t),
    }
    multiple, *series = products[key]
    first, second, *third = (s[s <= m_max] for s in series)
    counts = (multiple * _fft_product(_exact_product(first, second, m_max), *third, m_max)
              if third else _exact_product(first, second, m_max))
    return _on_grid(counts, grid, modulus)


def primitive_r3_class_table(scale: int, grid: range) -> np.ndarray:
    """counts[i] = count_signed_representations(scale * grid[i], (1, 1, 1),
    primitive=True) on a grid of the class of the (1, 1, 1) table at scale.

    No term is zero there, so the signed count is 8 times tuple_class_table
    on the whole class. As 4 does not divide N, a gcd f of a vector is odd,
    and f^2 = 1 mod 8 keeps n / f^2 in the class: _primitive reads the
    whole-class table on the sub-grids n / f^2.
    """
    modulus, residue = _table_class(((1, 1, 1), scale), grid)
    r3 = 8 * tuple_class_table((1, 1, 1), scale, range(residue, grid[-1] + 1, modulus))
    return _primitive(lambda sub: _on_grid(r3, sub, modulus), grid)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a | n) for odd positive n, by binary reciprocity."""
    a, n = operator.index(a), operator.index(n)
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
    n = operator.index(n)
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


@functools.lru_cache(maxsize=1 << 16, typed=True)  # so a float misses, and is refused
def factorize(n: int) -> Factorization:
    """Deterministic factorization: trial division, then rho splitting.

    Trial division runs to min(sqrt(n), 2^16); whatever survives is either
    prime (Miller-Rabin, deterministic in this range) or gets split by
    Pollard's rho with fixed seeds.
    """
    n = operator.index(n)
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


@dataclass(frozen=True)
class FactorColumns:
    """Factor counts of the n of a grid of odd n, index i at grid[i].

    `distinct_primes` and `odd_exponent_primes` (int8) count the primes
    dividing n and those to an odd power, `ideal_counts[kind]` (int32) is
    ideal_count(n, kind). Indexing slices every field alike.
    """

    distinct_primes: np.ndarray
    odd_exponent_primes: np.ndarray
    ideal_counts: dict

    def __getitem__(self, key) -> FactorColumns:
        return FactorColumns(self.distinct_primes[key], self.odd_exponent_primes[key],
                             {kind: column[key] for kind, column in self.ideal_counts.items()})


def factor_columns(grid: range) -> FactorColumns:
    """Factor counts and ideal counts of every n of a grid from one sieve.

    The grid is of odd n at a power-of-two step (_table_class), so the step
    is invertible mod every odd q and the multiples of q sit at the indices
    i = -start / step mod q, every q-th. Each odd prime p <= sqrt(grid[-1])
    divides its multiples out of a remainder column, one strided slice per
    power of p, and a remainder above 1 is one more prime, so time and memory
    are O(len(grid) + sqrt(grid[-1])). A prime's character, like
    ideal_count's, is jacobi(kind, p), which for kind -1 and -2 depends only
    on p mod 8.
    """
    _table_class(("factors",), grid)
    start, step, last = grid.start, grid.step, grid[-1]
    rem = np.arange(start, last + 1, step, dtype=np.int64)  # index i at n = grid[i]
    distinct = np.zeros(rem.size, dtype=np.int8)
    odd = np.zeros(rem.size, dtype=np.int8)
    ideal = {kind: np.ones(rem.size, dtype=np.int32) for kind in IdealCountKind}
    split = {kind: np.array([r % 2 == 1 and jacobi(kind.value, r) == 1
                             for r in range(8)]) for kind in IdealCountKind}
    for p in filter(is_prime, range(3, math.isqrt(last) + 1, 2)):
        s = -start * pow(step, -1, p) % p  # rem[s::p] are the multiples of p
        e = np.zeros(rem[s::p].size, dtype=np.int8)  # and e their exponents
        q = p
        while q <= last:
            i = -start * pow(step, -1, q) % q
            rem[i::q] //= p
            e[(i - s) // p :: q // p] += 1
            q *= p
        distinct[s::p] += 1
        odd[s::p] += e & 1
        for kind, table in split.items():
            # split primes give c + 1; inert ones 1 for even c, 0 for odd c
            ideal[kind][s::p] *= e + 1 if table[p % 8] else 1 - (e & 1)
    for i in range(0, rem.size, _COLUMN_BLOCK):  # a block's temporaries at a time
        block = slice(i, i + _COLUMN_BLOCK)
        big = rem[block] > 1
        distinct[block] += big
        odd[block] += big
        for kind, table in split.items():
            ideal[kind][block] *= np.where(big, 2 * table[rem[block] % 8], 1)
    return FactorColumns(distinct, odd, ideal)


def class_number(d: int) -> int:
    """Class number of the order of discriminant d < 0.

    Counts reduced primitive positive definite forms (a, b, c) with
    b^2 - 4ac = d: the conditions are |b| <= a <= c, gcd(a, b, c) = 1, and
    b >= 0 whenever |b| = a or a = c. Enumeration over a up to sqrt(-d/3)
    with a vectorized scan over the admissible b values. The scan holds
    b^2 - d <= -4d/3 in int64, so d must exceed -3*2^61.
    """
    d = operator.index(d)
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


def class_numbers(scale: int, grid: range) -> np.ndarray:
    """h[i] = class_number(-scale * grid[i]) on a grid of n = 3 mod 8 at
    scale 1 or of n = 7 mod 8 at scale 8.

    A reduced form of content f is f times a primitive one of discriminant
    -scale * n / f^2, so f is odd, and f^2 = 1 mod 8 keeps n / f^2 in the
    class: h is the Mobius sum over odd squarefree f (_primitive) of the
    forms of every content (_reduced_forms) on the sub-grids n / f^2.
    """
    _table_class(("class_numbers", scale), grid)
    if scale * grid[-1] >= 1 << 60:
        raise ValueError(f"class numbers need scale * n < 2^60, not {scale} on {grid}")
    return _primitive(functools.partial(_reduced_forms, scale), grid)


def _reduced_forms(scale: int, grid: range) -> np.ndarray:
    # reduced forms of every content at each n of the grid (Cohen, A Course
    # in Computational Algebraic Number Theory, 5.3): for each a and b in [0,
    # a], the c >= a with 4ac - b^2 = scale * n on the grid form one
    # progression; a form with 0 < b < a < c stands for (a, +-b, c)
    d_lo, d_hi = scale * grid.start, scale * grid[-1]
    mod = scale * grid.step
    rhs = (d_lo + np.arange(math.isqrt(d_hi // 3) + 1, dtype=np.int64) ** 2) % mod
    counts = np.zeros(len(grid), dtype=np.int64)
    for a in range(1, rhs.size):
        # 4ac = b^2 + d_lo = rhs[b] (mod scale * step) has solutions c iff g
        # divides the right side, and then they form one class mod `step`
        g = math.gcd(4 * a, mod)
        step = mod // g
        bs = np.flatnonzero(rhs[: a + 1] % g == 0)
        if not bs.size:
            continue
        c0 = rhs[bs] // g * pow(4 * a // g, -1, step) % step
        c_first = np.maximum(a, -(-(d_lo + bs * bs) // (4 * a)))
        c_first += (c0 - c_first) % step
        runs = np.maximum(0, ((d_hi + bs * bs) // (4 * a) - c_first) // step + 1)
        total = int(runs.sum())
        if not total:
            continue
        starts = np.repeat(np.cumsum(runs) - runs, runs)
        b = np.repeat(bs, runs)
        c = np.repeat(c_first, runs) + step * (np.arange(total) - starts)
        twins = (b > 0) & (b < a) & (c > a)
        np.add.at(counts, (4 * a * c - b * b - d_lo) // mod, 1 + twins)
    return counts

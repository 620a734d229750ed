"""Arithmetic oracles: counts, symbols, factorization, class numbers.

Wherever possible each function is checked against a second route computed
here from first principles: brute-force solution enumeration for the
counting functions, Euler's criterion for the Jacobi symbol on primes, a
sieve for primality, and literal divisor sums for the ideal counts. Where
sympy is installed it is a third route for factorization, primality and the
Jacobi symbol.
"""

import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

from thetaparity import quadarith as qa
from thetaparity.quadarith import DiagonalForm, IdealCountKind


@functools.lru_cache(maxsize=None)
def brute_square_tuples(n, coeffs):
    # all ordered tuples of square values, by unconditional enumeration
    if len(coeffs) == 1:
        return 1 if n % coeffs[0] == 0 and qa.is_square(n // coeffs[0]) else 0
    total = 0
    r = 0
    while coeffs[0] * r * r <= n:
        total += brute_square_tuples(n - coeffs[0] * r * r, coeffs[1:])
        r += 1
    return total


@functools.lru_cache(maxsize=None)
def brute_signed(n, coeffs, primitive):
    bound = math.isqrt(n) + 1
    count = 0
    if len(coeffs) == 2:
        grid = [(x, y) for x in range(-bound, bound + 1)
                for y in range(-bound, bound + 1)]
        for x, y in grid:
            if coeffs[0] * x * x + coeffs[1] * y * y == n:
                if not primitive or math.gcd(x, y) == 1:
                    count += 1
        return count
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            for z in range(-bound, bound + 1):
                if coeffs[0] * x * x + coeffs[1] * y * y + coeffs[2] * z * z == n:
                    if not primitive or math.gcd(math.gcd(x, y), z) == 1:
                        count += 1
    return count


def test_diagonal_form_validation():
    DiagonalForm((1, 2, 8))
    with pytest.raises(ValueError):
        DiagonalForm(())
    with pytest.raises(ValueError):
        DiagonalForm((1, 2, 3, 4))
    with pytest.raises(ValueError):
        DiagonalForm((1, 0))


def test_count_square_tuples_known_values():
    assert qa.count_square_tuples(11, (1, 1, 1)) == 3  # 9+1+1 in three orders
    assert qa.count_square_tuples(11, (1, 2, 8)) == 2
    assert qa.count_square_tuples(17, (1, 4)) == 1
    assert qa.count_square_tuples(7, (1, 2, 4)) == 1
    assert qa.count_square_tuples(14, (1, 1, 1)) == 6
    assert qa.count_square_tuples(11, (1, 2)) == 1
    assert qa.count_square_tuples(0, (1, 2, 8)) == 1
    assert qa.count_square_tuples(3, (4,)) == 0
    assert qa.count_square_tuples(36, (4,)) == 1
    with pytest.raises(ValueError):
        qa.count_square_tuples(-1, (1, 1, 1))


def test_count_square_tuples_accepts_form_object():
    form = DiagonalForm((1, 2, 8))
    assert qa.count_square_tuples(11, form) == 2


# the default block holds each grid below whole; blocks of one row, of a few
# rows, and of rows cut mid-axis must give the same counts
BLOCK_SIZES = (qa._BLOCK_CELLS, 1, 7, 64)


def test_count_square_tuples_vs_brute(monkeypatch):
    for block in BLOCK_SIZES:
        monkeypatch.setattr(qa, "_BLOCK_CELLS", block)
        for coeffs in [(1,), (2,), (1, 2), (1, 4), (1, 1, 1), (1, 2, 8), (1, 2, 4)]:
            for n in range(0, 200):
                assert qa.count_square_tuples(n, coeffs) == \
                    brute_square_tuples(n, coeffs), (block, coeffs, n)


FFT_FORMS = [(1, 1, 1), (1, 2, 8), (1, 2, 4), (1, 2), (1, 4), (3,), (2, 5)]


def tuple_bincount(coeffs, n_max):
    """count_square_tuples for every n <= n_max: one bincount over all tuples."""
    sums = np.zeros(1, dtype=np.int64)
    for a in coeffs:
        values = a * np.arange(math.isqrt(n_max // a) + 1, dtype=np.int64) ** 2
        sums = np.add.outer(sums, values).ravel()
    return np.bincount(sums[sums <= n_max], minlength=n_max + 1)


def test_theta_product_table_matches_tuple_bincount():
    for coeffs in FFT_FORMS:
        for n_max in (0, 1, 2, 7, 64, 3001):
            table = qa.theta_product_table(coeffs, n_max)
            assert table.dtype == np.int64 and table.shape == (n_max + 1,)
            assert (table == tuple_bincount(coeffs, n_max)).all(), (coeffs, n_max)


def test_signed_theta_product_table_matches_per_query():
    for coeffs in FFT_FORMS:
        table = qa.theta_product_table(coeffs, 300, signed=True)
        for n in range(301):
            assert table[n] == qa.count_signed_representations(n, coeffs), (coeffs, n)


def test_theta_product_table_precision_check(monkeypatch):
    # an inverse transform that is off by 0.3 somewhere must not round quietly
    irfft = np.fft.irfft

    def perturbed(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out[5] += 0.3
        return out

    monkeypatch.setattr(np.fft, "irfft", perturbed)
    with pytest.raises(AssertionError, match="precision"):
        qa.theta_product_table((1, 1, 1), 100)
    with pytest.raises(AssertionError, match="precision"):
        qa.primitive_signed_r3_table(100)
    monkeypatch.setattr(np.fft, "irfft", irfft)
    assert qa.theta_product_table((1, 1, 1), 100)[5] == 6  # 4 + 1 + 0, ordered


def test_primitive_signed_r3_table_matches_per_query():
    table = qa.primitive_signed_r3_table(3000)
    assert table[0] == 0 == qa.count_signed_representations(0, (1, 1, 1), primitive=True)
    for n in range(3001):
        assert table[n] == qa.count_signed_representations(
            n, (1, 1, 1), primitive=True), n
    for n_max in (0, 1, 3, 4):
        assert (qa.primitive_signed_r3_table(n_max) == table[: n_max + 1]).all()


def test_factor_columns_match_factorize():
    for lo, hi in ((0, 3000), (0, 0), (1, 1), (777, 1500), (2**16 - 5, 2**16 + 40)):
        cols = qa.factor_columns(lo, hi)
        for i, n in enumerate(range(lo, hi + 1)):
            pairs = qa.factorize(n).pairs if n else ()
            assert cols.distinct_primes[i] == len(pairs), n
            assert cols.odd_exponent_primes[i] == sum(c % 2 for _, c in pairs), n
            for kind in IdealCountKind:
                want = qa.ideal_count(n, kind) if n % 2 else 0
                assert cols.ideal_counts[kind][i] == want, (n, kind)
    with pytest.raises(ValueError):
        qa.factor_columns(5, 4)


def test_class_numbers_match_class_number():
    # every discriminant the suite asks for up to hi = 2000, and windows
    for scale, residue in ((1, 3), (8, 7)):
        for lo, hi in ((0, 2000), (0, 0), (3, 3), (1001, 1700), (5, 9), (8, 14)):
            h = qa.class_numbers(scale, residue, lo, hi)
            assert h.shape == (hi - lo + 1,)
            for i, n in enumerate(range(lo, hi + 1)):
                want = qa.class_number(-scale * n) if n % 8 == residue else 0
                assert h[i] == want, (scale, n)
    for bad in ((1, 1, 0, 10), (8, 7, 10, 9), (0, 3, 0, 10), (1, 3, -1, 10)):
        with pytest.raises(ValueError):
            qa.class_numbers(*bad)


def test_class_numbers_vs_sympy():
    # a third route: h(-n) for prime n = 3 mod 4, n > 3, is the sum of the
    # Legendre symbols (k|n) over 0 < k < n/2, divided by 2 - (2|n)
    # (Dirichlet's class number formula)
    sympy = pytest.importorskip("sympy")
    h = qa.class_numbers(1, 3, 0, 1000)
    for n in sympy.primerange(5, 1001):
        if n % 8 == 3:
            s = sum(sympy.legendre_symbol(k, n) for k in range(1, (n + 1) // 2))
            assert h[n] == s // (2 - sympy.legendre_symbol(2, n)), n


def test_signed_representations_known_values():
    assert qa.count_signed_representations(11, (1, 1, 1), primitive=True) == 24
    assert qa.count_signed_representations(14, (1, 1, 1), primitive=True) == 48
    assert qa.count_signed_representations(0, (1, 1, 1)) == 1
    assert qa.count_signed_representations(0, (1, 1, 1), primitive=True) == 0
    assert qa.count_signed_representations(4, (1,)) == 2
    assert qa.count_signed_representations(4, (1,), primitive=True) == 0
    assert qa.count_signed_representations(1, (1,), primitive=True) == 2
    assert qa.count_signed_representations(3, (1,)) == 0
    with pytest.raises(ValueError):
        qa.count_signed_representations(-2, (1, 1))


def test_signed_representations_vs_brute(monkeypatch):
    for block in BLOCK_SIZES:
        monkeypatch.setattr(qa, "_BLOCK_CELLS", block)
        for coeffs in [(1, 2), (1, 4), (1, 1, 1), (1, 2, 4)]:
            for n in range(0, 120):
                for primitive in (False, True):
                    assert qa.count_signed_representations(n, coeffs, primitive) == \
                        brute_signed(n, coeffs, primitive), (block, coeffs, n, primitive)


def test_signed_representations_memory_is_blocked():
    # the whole sqrt(n) x sqrt(n) grid at n = 10^7 would need hundreds of MiB
    n = 10**7 + 3
    tracemalloc.start()
    try:
        signed = qa.count_signed_representations(n, (1, 1, 1), primitive=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
    assert signed == 24 * qa.class_number(-n) == 16944


def test_counts_at_the_int64_edge():
    top = (1 << 63) - 1
    root = math.isqrt(top)  # 3037000499
    assert qa.count_signed_representations(top, (1,)) == 0
    assert qa.count_square_tuples(root * root, (1,)) == 1
    assert qa.count_signed_representations(root * root, (1,)) == 2
    for count in (qa.count_square_tuples, qa.count_signed_representations):
        with pytest.raises(ValueError):
            count(1 << 63, (3,))
        with pytest.raises(ValueError):
            count(1 << 63, (1, 2))
    with pytest.raises(ValueError):
        DiagonalForm((1, 1 << 63))


def test_signed_imprimitive_decomposition():
    # every vector is a gcd multiple of a primitive one:
    # total(n) = sum over a^2 | n of primitive(n / a^2)
    for n in range(1, 400):
        total = qa.count_signed_representations(n, (1, 1, 1))
        parts = 0
        a = 1
        while a * a <= n:
            if n % (a * a) == 0:
                parts += qa.count_signed_representations(
                    n // (a * a), (1, 1, 1), primitive=True)
            a += 1
        assert total == parts, n


def test_is_square():
    squares = {k * k for k in range(40)}
    for n in range(1500):
        assert qa.is_square(n) == (n in squares)
    assert not qa.is_square(-4)


def test_jacobi_known_values():
    assert qa.jacobi(-2, 3) == 1
    assert qa.jacobi(2, 15) == 1
    assert qa.jacobi(2, 7) == 1
    assert qa.jacobi(3, 7) == -1
    assert qa.jacobi(21, 15) == 0
    assert qa.jacobi(5, 1) == 1
    assert qa.jacobi(-1, 5) == 1
    assert qa.jacobi(-1, 7) == -1
    with pytest.raises(ValueError):
        qa.jacobi(3, 8)
    with pytest.raises(ValueError):
        qa.jacobi(3, -5)


def test_jacobi_on_primes_matches_euler_criterion():
    primes = [p for p in range(3, 200, 2) if qa.is_prime(p)]
    for p in primes:
        for a in range(-6, 50):
            legendre = pow(a % p, (p - 1) // 2, p)
            legendre = -1 if legendre == p - 1 else legendre
            assert qa.jacobi(a, p) == legendre, (a, p)


def test_jacobi_multiplicative_and_periodic():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 2000) * 2 + 1
        m = rng.randrange(1, 2000) * 2 + 1
        a = rng.randrange(-3000, 3000)
        b = rng.randrange(-3000, 3000)
        assert qa.jacobi(a * b, n) == qa.jacobi(a, n) * qa.jacobi(b, n)
        assert qa.jacobi(a, n * m) == qa.jacobi(a, n) * qa.jacobi(a, m)
        assert qa.jacobi(a + n, n) == qa.jacobi(a, n)


def test_is_prime_vs_sieve():
    limit = 10000
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    for n in range(limit):
        assert qa.is_prime(n) == bool(sieve[n]), n


def test_factorize_roundtrip():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 10 ** 9)
        f = qa.factorize(n)
        assert f.value == n
        prod = 1
        prev = 1
        for p, c in f.pairs:
            assert p > prev and c >= 1
            assert qa.is_prime(p)
            prod *= p ** c
            prev = p
        assert prod == n
    assert qa.factorize(1).pairs == ()
    assert qa.factorize(360).pairs == ((2, 3), (3, 2), (5, 1))


def test_factorize_beyond_trial_division():
    # primes above 2^20 force the Miller-Rabin plus rho path
    limit = 2_200_000
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    big = np.nonzero(sieve)[0]
    big = big[big > 1 << 20]
    p, q = int(big[0]), int(big[7])
    assert qa.factorize(p * q).pairs == ((p, 1), (q, 1))
    assert qa.factorize(p * p).pairs == ((p, 2),)


def test_factorize_vs_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    values = [rng.randrange(1, 1 << 63) for _ in range(10)]
    for _ in range(5):
        # two primes above the trial-division limit force the rho path
        p = sympy.nextprime(rng.randrange(1 << 20, 1 << 31))
        q = sympy.nextprime(rng.randrange(1 << 20, 1 << 31))
        values.append(p * q)
    # primes just past the trial-division limit, as powers and products
    p = sympy.nextprime(qa._TRIAL_LIMIT)
    q = sympy.nextprime(p)
    values += [p * p, p ** 3, p * q, p * p * q]
    # a semiprime near 2^62: rho has to find a factor near 2^31
    values.append(sympy.prevprime(1 << 31) * sympy.nextprime(1 << 31))
    for n in values:
        assert dict(qa.factorize(n).pairs) == sympy.factorint(n), n


def test_is_prime_vs_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    values = [rng.randrange(0, 1 << 64) for _ in range(300)]
    values += [int(sympy.nextprime(rng.randrange(1 << 63))) for _ in range(50)]
    for n in values:
        assert qa.is_prime(n) == sympy.isprime(n), n


def test_jacobi_vs_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(47)
    for _ in range(2000):
        n = rng.randrange(0, 1 << rng.choice((8, 32, 64))) * 2 + 1
        a = rng.randrange(-(1 << 64), 1 << 64)
        assert qa.jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_factorize_validation():
    for bad in (0, -4, 1 << 63):
        with pytest.raises(ValueError):
            qa.factorize(bad)


def test_odd_exponent_prime_count():
    assert qa.odd_exponent_prime_count(qa.factorize(195)) == 3  # 3 * 5 * 13
    assert qa.odd_exponent_prime_count(qa.factorize(45)) == 1  # 3^2 * 5
    assert qa.odd_exponent_prime_count(qa.factorize(36)) == 0
    assert qa.odd_exponent_prime_count(qa.factorize(1)) == 0


def test_ideal_count_known_values():
    assert qa.ideal_count(9, IdealCountKind.MINUS_TWO) == 3
    assert qa.ideal_count(17, IdealCountKind.MINUS_TWO) == 2
    assert qa.ideal_count(17, IdealCountKind.GAUSSIAN) == 2
    assert qa.ideal_count(1, IdealCountKind.GAUSSIAN) == 1
    assert qa.ideal_count(3, IdealCountKind.GAUSSIAN) == 0
    with pytest.raises(ValueError):
        qa.ideal_count(6, IdealCountKind.GAUSSIAN)
    with pytest.raises(ValueError):
        qa.ideal_count(0, IdealCountKind.MINUS_TWO)


def test_ideal_count_is_character_divisor_sum():
    # the multiplicative product must equal the literal divisor sum
    for kind in IdealCountKind:
        for n in range(1, 2002, 2):
            direct = sum(qa.jacobi(kind.value, d) for d in range(1, n + 1) if n % d == 0)
            assert qa.ideal_count(n, kind) == direct, (n, kind)


def test_ideal_count_multiplicative_on_coprime_parts():
    rng = random.Random(31)
    for _ in range(200):
        a = rng.randrange(1, 300) * 2 + 1
        b = rng.randrange(1, 300) * 2 + 1
        if math.gcd(a, b) != 1:
            continue
        for kind in IdealCountKind:
            assert qa.ideal_count(a * b, kind) == \
                qa.ideal_count(a, kind) * qa.ideal_count(b, kind)


def test_class_number_known_values():
    known = {
        -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -12: 1, -15: 2, -16: 1,
        -19: 1, -20: 2, -23: 3, -24: 2, -27: 1, -40: 2, -43: 1,
        -47: 5, -56: 4, -67: 1, -71: 7, -84: 4, -163: 1,
    }
    for d, h in known.items():
        assert qa.class_number(d) == h, d


def test_class_number_validation():
    # the last two lie past -3*2^61, where the int64 scan could overflow
    for bad in (5, 0, -5, -6, -10**19, -(1 << 70)):
        with pytest.raises(ValueError):
            qa.class_number(bad)


def test_class_number_against_triple_counts():
    # primitive signed triples of squares summing to n number 24 h(-n)
    # for n = 3 mod 8, n > 3, and 12 h(-8n) at 2n for n = 7 mod 8
    for n in range(11, 500, 8):
        signed = qa.count_signed_representations(n, (1, 1, 1), primitive=True)
        assert signed == 24 * qa.class_number(-n), n
    for n in range(7, 500, 8):
        signed = qa.count_signed_representations(2 * n, (1, 1, 1), primitive=True)
        assert signed == 12 * qa.class_number(-8 * n), n

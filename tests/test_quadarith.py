"""Arithmetic oracles: counts, symbols, factorization, class numbers.

Wherever possible each function is checked against a second route computed
here from first principles: brute-force solution enumeration for the
counting functions, Euler's criterion for the Jacobi symbol on primes, a
sieve for primality, and literal divisor sums for the ideal counts. Where
sympy is installed it is a third route for factorization, primality and the
Jacobi symbol.
"""

import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from thetaparity import quadarith as qa
from thetaparity.f2series import SparseExponents
from thetaparity.quadarith import IdealCountKind


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
    # one to three integer coefficients in [1, 2^63); a float is not rounded
    for bad in ((), (1, 2, 3, 4), (1, 0), (1, -2), (1, 1 << 63)):
        with pytest.raises(ValueError):
            qa.count_square_tuples(11, bad)
    for bad in ((1.5, 2, 8), (1.0, 2, 8), ("1", "2"), "12", np.array([1.0, 2.0, 8.0]), 3):
        with pytest.raises(TypeError):
            qa.count_square_tuples(11, bad)


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
    # any sequence of integers is a form: a tuple, a list, numpy integers
    for form in ((1, 2, 8), [1, 2, 8], np.array([1, 2, 8]), np.array([1, 2, 8], np.uint8),
                 (np.int64(1), 2, np.int32(8)), range(1, 3)):
        want = 2 if len(form) == 3 else 1
        assert qa.count_square_tuples(11, form) == want, form


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


def tuple_bincount(coeffs, n_max):
    """count_square_tuples for every n <= n_max: one bincount over all tuples."""
    sums = np.zeros(1, dtype=np.int64)
    for a in coeffs:
        values = a * np.arange(math.isqrt(n_max // a) + 1, dtype=np.int64) ** 2
        sums = np.add.outer(sums, values).ravel()
    return np.bincount(sums[sums <= n_max], minlength=n_max + 1)


# (form, scale, modulus, residue) of each class table: its counts are at N =
# scale * n for the n = residue mod modulus; the two-variable forms on the
# odd n, three on classes mod 8
CLASSES = [((1, 2), 1, 2, 1), ((1, 4), 1, 2, 1), ((1, 1, 1), 1, 8, 3),
           ((1, 2, 8), 1, 8, 3), ((1, 2, 4), 1, 8, 7), ((1, 1, 1), 2, 8, 7)]
# (scale, modulus, residue) of each primitive r3 table
PRIMITIVE = [(1, 8, 3), (2, 8, 7)]


def class_grid(modulus, residue, m_max):
    # the whole class up to n = modulus * m_max + residue, the table's m_max
    return range(residue, modulus * m_max + residue + 1, modulus)


def test_class_tables_match_tuple_bincount():
    # every entry of each class table, from the smallest N of its class on
    for form, scale, modulus, residue in CLASSES:
        for m_max in (0, 1, 2, 7, 64, 1000):
            top = scale * (modulus * m_max + residue)
            want = tuple_bincount(form, top)[scale * residue :: scale * modulus]
            table = qa.tuple_class_table(form, scale, class_grid(modulus, residue, m_max))
            assert table.dtype == np.int64 and table.shape == (m_max + 1,)
            assert (table == want).all(), (form, scale, modulus, m_max)


def test_class_tables_match_per_query():
    # every class table at every m, and the signed counts 8 times it where
    # no term can be zero; m_max = 0 holds only the first member, N = 1, 3,
    # 7 or 14
    for form, scale, modulus, residue in CLASSES:
        table = qa.tuple_class_table(form, scale, class_grid(modulus, residue, 300))
        assert table.dtype == np.int64 and table.shape == (301,)
        for m in range(301):
            n = scale * (modulus * m + residue)
            assert table[m] == qa.count_square_tuples(n, form), (form, scale, m)
            if form in ((1, 1, 1), (1, 2, 4)):
                assert 8 * table[m] == qa.count_signed_representations(n, form), n
        for m_max in (0, 1, 2, 7):
            assert (qa.tuple_class_table(form, scale, class_grid(modulus, residue, m_max))
                    == table[: m_max + 1]).all()


def class_sub_grids(modulus, residue, lo, hi):
    # the grids of a class in [lo, hi] at steps of one, two and four times
    # its modulus, each sub-class of them, and each n alone
    first = lo + (residue - lo) % modulus
    grids = [range(first + k * modulus, hi + 1, step * modulus)
             for step in (1, 2, 4) for k in range(step)]
    grids += [range(n, n + 1, modulus) for n in range(first, hi + 1, modulus)]
    return [grid for grid in grids if grid]


def test_class_tables_match_per_query_on_every_grid():
    # a table takes the grid it fills: from 0 and from lo = 1000, at steps
    # of 1, 2 and 4 times its modulus in every sub-class, and single n
    for lo, hi in ((0, 300), (1000, 1300)):
        for form, scale, modulus, residue in CLASSES:
            want = {n: qa.count_square_tuples(scale * n, form)
                    for n in range(lo + (residue - lo) % modulus, hi + 1, modulus)}
            for grid in class_sub_grids(modulus, residue, lo, hi):
                got = qa.tuple_class_table(form, scale, grid)
                assert got.dtype == np.int64
                assert got.tolist() == [want[n] for n in grid], (form, scale, grid)
        for scale, modulus, residue in PRIMITIVE:
            want = {n: qa.count_signed_representations(scale * n, (1, 1, 1), primitive=True)
                    for n in range(lo + (residue - lo) % modulus, hi + 1, modulus)}
            for grid in class_sub_grids(modulus, residue, lo, hi):
                got = qa.primitive_r3_class_table(scale, grid)
                assert got.tolist() == [want[n] for n in grid], (scale, grid)


def test_class_tables_copy_the_part_a_grid_reads():
    # a grid that reads part of a table gets its own array, so the rest of
    # the table is freed; a grid of the whole class gets the table itself
    def parts(modulus, residue):
        top = 4000 - (4000 - residue) % modulus
        return (range(residue + modulus, top + 1, modulus),
                range(residue, top + 1, 2 * modulus), range(top, top + 1, modulus))

    for form, scale, modulus, residue in CLASSES:
        whole = qa.tuple_class_table(form, scale, class_grid(modulus, residue, 10))
        assert whole.base is None and whole.shape == (11,)
        for grid in parts(modulus, residue):
            got = qa.tuple_class_table(form, scale, grid)
            assert got.base is None and got.shape == (len(grid),), (form, scale, grid)
    for scale, modulus, residue in PRIMITIVE:
        for grid in parts(modulus, residue):
            got = qa.primitive_r3_class_table(scale, grid)
            assert got.base is None and got.shape == (len(grid),), (scale, grid)


def test_class_tables_name_the_key_and_grid_they_refuse():
    # a (form, scale) with no table, a grid off the class, at a step that
    # is not a multiple of the modulus or running down, or empty, and the
    # primitive table at scale 3
    refused = [(((1, 1, 1), 3), range(3, 100, 8)), (((1, 2), 2), range(1, 100, 2)),
               (((1, 1, 1), 1), range(7, 100, 8)), (((1, 2), 1), range(2, 100, 2)),
               (((1, 1, 1), 1), range(3, 100, 4)), (((1, 2, 4), 1), range(7, 100, 12)),
               (((1, 1, 1), 1), range(3, 3, 8)), (((1, 4), 1), range(1, 0, 2)),
               (((1, 1, 1), 2), range(-1, 100, 8)), (((1, 2, 8), 1), range(99, 2, -8)),
               (((1, 1, 1), 1), range(3, 100, 24))]
    for key, grid in refused:
        with pytest.raises(ValueError) as exc:
            qa.tuple_class_table(*key, grid)
        assert str(key) in str(exc.value) and str(grid) in str(exc.value), exc.value
    for scale, grid in ((3, range(3, 100, 8)), (1, range(7, 100, 8)), (2, range(7, 7, 8)),
                        (2, range(7, 100, 24))):
        with pytest.raises(ValueError) as exc:
            qa.primitive_r3_class_table(scale, grid)
        assert str(((1, 1, 1), scale)) in str(exc.value) and str(grid) in str(exc.value)
    # class numbers exist at scale 1 on 3 mod 8 and at scale 8 on 7 mod 8,
    # at power-of-two steps: not at a step of 24, on 7 mod 8 or on even n
    # at scale 1, or at scales 2 and 4
    for scale, grid in ((1, range(3, 100, 24)), (8, range(7, 100, 24)), (1, range(7, 100, 8)),
                        (1, range(4, 100, 8)), (2, range(3, 100, 8)), (2, range(7, 100, 8)),
                        (4, range(3, 100, 8)), (4, range(7, 100, 8))):
        with pytest.raises(ValueError) as exc:
            qa.class_numbers(scale, grid)
        assert str(("class_numbers", scale)) in str(exc.value) and str(grid) in str(exc.value)
    # factor columns sieve odd n at power-of-two steps: not from an even or a
    # negative start, at a step of 3 or 1, running down, or on no n
    for grid in (range(4, 100, 8), range(3, 100, 3), range(-5, 100, 8), range(1, 100),
                 range(99, 2, -8), range(5, 5, 2)):
        with pytest.raises(ValueError) as exc:
            qa.factor_columns(grid)
        assert str(("factors",)) in str(exc.value) and str(grid) in str(exc.value)


def test_tables_take_one_transform_at_twice_the_length(fft_calls):
    # two variables are placed exactly; a third variable takes one inverse
    # transform at twice the table's length, so a class table at m_max
    # takes it at 2 m_max
    m_max = 1000
    one_irfft = [("irfft", qa._fft_size(2 * m_max + 1))]
    for form, scale, modulus, residue in CLASSES:
        del fft_calls[:]
        qa.tuple_class_table(form, scale, class_grid(modulus, residue, m_max))
        if len(form) < 3:
            assert fft_calls == [], form
        else:
            assert [call for call in fft_calls if call[0] == "irfft"] == one_irfft, form


def traced_peak(build):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_table_peaks_per_entry():
    # an exact two-variable table holds little besides its output; a
    # three-variable class table and a primitive class table hold the exact
    # table's spectrum, the third series and its spectrum, then the inverse
    # transform
    m_max = 10**5
    for form, scale, modulus, residue in CLASSES:
        build = functools.partial(qa.tuple_class_table, form, scale,
                                  class_grid(modulus, residue, m_max))
        peak = traced_peak(build)
        bound = 1.1 * 8 * (m_max + 1) if len(form) < 3 else 80 * (m_max + 1)
        assert peak <= bound, (form, scale, peak / (m_max + 1))
    for scale, modulus, residue in PRIMITIVE:
        peak = traced_peak(functools.partial(qa.primitive_r3_class_table, scale,
                                             class_grid(modulus, residue, m_max)))
        assert peak <= 80 * (m_max + 1), (scale, peak / (m_max + 1))


def test_roots_and_factor_columns_peaks_per_entry():
    # the roots column places the roots of the squares into its output, and
    # the factor sieve holds its 8-byte remainders, the 10-byte output and
    # slices of a third of it, so neither holds a full-length temporary
    # besides those
    from thetaparity import theorems as th

    grid = range(1 << 21)
    peak = traced_peak(lambda: th._COLUMNS["roots"](grid, None, 1))
    assert peak <= 1.1 * 8 * len(grid)
    hi = 2 * 10**6
    assert traced_peak(lambda: qa.factor_columns(range(1, hi + 1, 2))) <= 21 * (hi // 2)


EVEN_R3_LENGTHS = (0, 1, 2, 7, 64, 1500)


def test_even_r3_table_matches_oracles():
    # the (1,1,1) class table at N = 2n, n = 8m + 7, comes from the even
    # and odd triangular numbers; it must read the counts at every such N
    top = max(EVEN_R3_LENGTHS)
    tuples = tuple_bincount((1, 1, 1), 16 * top + 14)[14::16]
    for m_max in EVEN_R3_LENGTHS:
        table = qa.tuple_class_table((1, 1, 1), 2, class_grid(8, 7, m_max))
        assert table.dtype == np.int64 and table.shape == (m_max + 1,)
        assert (table == tuples[: m_max + 1]).all(), m_max


def test_table_scales_other_than_even_r3_are_refused():
    # class tables exist for the six classes the statements read only, each
    # on the coarsest class of its readers: (1,2) is read on 3 mod 8 and on
    # the odd n, so its table is on the odd n alone, and a grid at 3 mod 8
    # (or 1 mod 4 for (1,4)) reads that table; tables take no sign
    for form, scale, modulus, residue in (
            ((1, 1, 1), 3, 8, 3), ((1, 2, 4), 2, 8, 7), ((1, 2), 1, 2, 0),
            ((1, 1, 1), 1, 2, 1), ((1, 1, 1), 1, 8, 7), ((1, 1, 1), 2, 8, 3),
            ((1, 2, 8), 1, 8, 7)):
        with pytest.raises(ValueError, match="class table"):
            qa.tuple_class_table(form, scale, class_grid(modulus, residue, 10))
    for form, modulus, residue in (((1, 2), 8, 3), ((1, 4), 4, 1)):
        grid = class_grid(modulus, residue, 10)
        assert qa.tuple_class_table(form, 1, grid).tolist() == [
            qa.count_square_tuples(n, form) for n in grid]
    for scale, residue in ((1, 7), (2, 3), (3, 3), (1, 0)):
        with pytest.raises(ValueError, match="class table"):
            qa.primitive_r3_class_table(scale, class_grid(8, residue, 10))
    with pytest.raises(TypeError):
        qa.tuple_class_table((1, 1, 1), 1, class_grid(8, 3, 10), True)


def test_class_tables_reject_empty_grid():
    # the grid of m_max = -1 holds no n
    for form, scale, modulus, residue in CLASSES:
        with pytest.raises(ValueError, match="class table"):
            qa.tuple_class_table(form, scale, class_grid(modulus, residue, -1))


def test_even_r3_table_peak_is_below_the_full_table():
    # the class table at 2n, n = 8m + 7, transforms at twice its m_max, an
    # eighth of hi, where the full table to 2 hi, the exact product of two
    # theta series times the third by FFT, would transform at 4 hi
    hi = 10**5
    squares = np.arange(math.isqrt(2 * hi) + 1, dtype=np.int64) ** 2
    full = traced_peak(lambda: qa._fft_product(
        qa._exact_product(squares, squares, 2 * hi), squares, 2 * hi))
    part = traced_peak(lambda: qa.tuple_class_table((1, 1, 1), 2, range(7, hi + 1, 8)))
    assert part <= 0.1 * full, (part, full)


def test_class_table_precision_check(monkeypatch):
    # an inverse transform that is off by 0.3 somewhere must not round
    # quietly; the exact two-variable tables take no transform
    exact = {key: qa.tuple_class_table(key[0], key[1], class_grid(*key[2:], 100))
             for key in CLASSES if len(key[0]) < 3}
    irfft = np.fft.irfft

    def perturbed(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out[5] += 0.3
        return out

    monkeypatch.setattr(np.fft, "irfft", perturbed)
    for key in CLASSES:
        build = functools.partial(qa.tuple_class_table, key[0], key[1],
                                  class_grid(*key[2:], 100))
        if key in exact:
            assert (build() == exact[key]).all()
            continue
        with pytest.raises(AssertionError, match="precision"):
            build()
    for scale, modulus, residue in PRIMITIVE:
        with pytest.raises(AssertionError, match="precision"):
            qa.primitive_r3_class_table(scale, class_grid(modulus, residue, 100))
    monkeypatch.setattr(np.fft, "irfft", irfft)
    # 43 = 25 + 9 + 9, ordered
    assert qa.tuple_class_table((1, 1, 1), 1, class_grid(8, 3, 100))[5] == 3


def test_primitive_signed_r3_table_matches_per_query():
    # N = 8m + 3; Mobius terms of odd d land at m = d^2 m' + 3 (d^2 - 1) / 8
    table = qa.primitive_r3_class_table(1, class_grid(8, 3, 400))
    for m in range(401):
        assert table[m] == qa.count_signed_representations(
            8 * m + 3, (1, 1, 1), primitive=True), m
    for m_max in (0, 1, 2, 3, 7):
        assert (qa.primitive_r3_class_table(1, class_grid(8, 3, m_max))
                == table[: m_max + 1]).all()


def square_windows(residue, center, width):
    # the n = residue mod 8 within width of center at step 8, and each
    # sub-class of them at step 32
    first = center - width + (residue - center + width) % 8
    return [range(first + 8 * k, center + width + 1, step) for step in (8, 32)
            for k in range(step // 8)]


def test_even_primitive_signed_r3_table_matches_per_query():
    # N = 2n with n = 8m + 7: 4 does not divide N, so every d is odd and
    # n / d^2 stays in the class (n = 7 * 9 = 63 is the first with d = 3)
    table = qa.primitive_r3_class_table(2, class_grid(8, 7, 200))
    for m in range(201):
        assert table[m] == qa.count_signed_representations(
            2 * (8 * m + 7), (1, 1, 1), primitive=True), m
    for m_max in (0, 1, 2, 7):
        assert (qa.primitive_r3_class_table(2, class_grid(8, 7, m_max))
                == table[: m_max + 1]).all()
    # a window where large odd squares divide n: 77175 = 7 * 105^2
    whole, *parts = square_windows(7, 77175, 160)
    want = dict(zip(whole, (qa.count_signed_representations(2 * n, (1, 1, 1), primitive=True)
                            for n in whole)))
    for grid in (whole, *parts):
        assert qa.primitive_r3_class_table(2, grid).tolist() == [want[n] for n in grid], grid


def test_factor_columns_match_factorize():
    # grids of every odd class at steps 2, 4, 8 and 16, in windows from 0,
    # far from 0 (3*5*...*23 = 111546435 has eight distinct primes), with
    # odd and even ends; one entry per n of the grid
    primorial = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    windows = ((0, 3000), (1, 1), (777, 1500), (2**16 - 5, 2**16 + 40),
               (primorial - 600, primorial + 601))
    for step in (2, 4, 8, 16):
        for residue, (lo, hi) in itertools.product(range(1, step, 2), windows):
            grid = range(lo + (residue - lo) % step, hi + 1, step)
            if not grid:
                continue
            cols = qa.factor_columns(grid)
            assert cols.distinct_primes.dtype == cols.odd_exponent_primes.dtype == np.int8
            assert len(cols.distinct_primes) == len(grid)
            for i, n in enumerate(grid):
                pairs = qa.factorize(n).pairs
                assert cols.distinct_primes[i] == len(pairs), n
                assert cols.odd_exponent_primes[i] == sum(c % 2 for _, c in pairs), n
                for kind in IdealCountKind:
                    assert cols.ideal_counts[kind].dtype == np.int32
                    assert cols.ideal_counts[kind][i] == qa.ideal_count(n, kind), (n, kind)
            # indexing slices every field alike
            part = cols[1::3]
            assert (part.odd_exponent_primes == cols.odd_exponent_primes[1::3]).all()
            for kind in IdealCountKind:
                assert (part.ideal_counts[kind] == cols.ideal_counts[kind][1::3]).all()
    assert qa.factor_columns(range(primorial, primorial + 1, 8)).distinct_primes[0] == 8


def test_class_numbers_match_class_number():
    # every discriminant the suite asks for up to hi = 2000, on grids of
    # step 8 and 16, and windows, the last at the top of a 10^6 run, where
    # each n sums many leading a
    for scale, residue, step in ((1, 3, 8), (8, 7, 8), (1, 3, 16), (1, 11, 16),
                                 (8, 7, 16), (8, 15, 16)):
        for lo, hi in ((0, 2000), (3, 3), (1001, 1700), (5, 9), (8, 14), (8, 30),
                       (10**6 - 64, 10**6)):
            grid = range(lo + (residue - lo) % step, hi + 1, step)
            if grid:
                h = qa.class_numbers(scale, grid)
                assert h.tolist() == [qa.class_number(-scale * n) for n in grid], \
                    (scale, grid)
    # windows where large odd squares divide n, 33075 = 3 * 105^2 and 77175
    # = 7 * 105^2, at steps 8 and 32 (the second narrower: class_number takes
    # about 12 ms per n there), and n = 3 * 1155^2, where mu(1155) = 1
    for scale, residue, center, width in ((1, 3, 33075, 400), (8, 7, 77175, 32)):
        whole, *parts = square_windows(residue, center, width)
        want = {n: qa.class_number(-scale * n) for n in whole}
        for grid in (whole, *parts):
            assert qa.class_numbers(scale, grid).tolist() == [want[n] for n in grid], grid
    n = 3 * 1155**2
    assert qa.class_numbers(1, range(n, n + 1, 8)).tolist() == [qa.class_number(-n)]
    # n = 1 mod 8 at scale 1 (-n = 3 mod 4), a grid with such an n, an empty
    # grid, scale 0 and n <= 0
    for scale, grid in ((1, range(1, 100, 8)), (1, range(3, 100, 2)), (8, range(15, 15, 8)),
                        (0, range(3, 100, 8)), (1, range(-5, 100, 8)), (8, range(0, 100, 8))):
        with pytest.raises(ValueError):
            qa.class_numbers(scale, grid)


def test_class_numbers_vs_sympy():
    # a third route: h(-n) for prime n = 3 mod 4, n > 3, is the sum of the
    # Legendre symbols (k|n) over 0 < k < n/2, divided by 2 - (2|n)
    # (Dirichlet's class number formula); h[m] is at n = 8m + 3
    sympy = pytest.importorskip("sympy")
    h = qa.class_numbers(1, range(3, 1001, 8))
    for n in sympy.primerange(5, 1001):
        if n % 8 == 3:
            s = sum(sympy.legendre_symbol(k, n) for k in range(1, (n + 1) // 2))
            assert h[n // 8] == s // (2 - sympy.legendre_symbol(2, n)), n


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
    # two variables: the first axis alone, 2^22 int64 values, is 32 MiB;
    # r(n) = 2 * sum over d | n of (-8/d), with n = 17 * 353 * 2931542417
    tracemalloc.start()
    try:
        signed = qa.count_signed_representations((1 << 44) + 1, (1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert signed == 16


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
        qa.count_square_tuples(1, (1, 1 << 63))


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


def test_factorization_rejects_inconsistent_pairs():
    with pytest.raises(ValueError, match="increasing primes"):
        qa.Factorization(15, ((5, 1), (3, 1)))
    with pytest.raises(ValueError, match="9 is not prime"):
        qa.Factorization(18, ((2, 1), (9, 1)))
    with pytest.raises(ValueError, match="multiply back"):
        qa.Factorization(16, ((2, 3),))


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


def _one_integer_swapped(args, convert):
    # copies of args with one int, at any depth of tuples, passed through convert
    for i, arg in enumerate(args):
        if isinstance(arg, tuple):
            swapped = _one_integer_swapped(arg, convert)
        elif isinstance(arg, int):
            swapped = [convert(arg)]
        else:
            continue
        yield from ((*args[:i], value, *args[i + 1:]) for value in swapped)


@pytest.mark.parametrize("function, args", [
    (qa.jacobi, (2, 7)),
    (qa.is_prime, ((1 << 61) - 1,)),  # a float rounds it to 2^61
    (qa.factorize, (12,)),
    (qa.class_number, (-47,)),
    (qa.ideal_count, (17, IdealCountKind.GAUSSIAN)),
    (qa.count_square_tuples, (11, (1, 2, 8))),
    (qa.count_signed_representations, (11, (1, 1, 1))),
    (SparseExponents, ((0, 1, 4), 9)),
], ids=lambda value: getattr(value, "__name__", None))
def test_integer_arguments_refuse_floats_and_strings(function, args):
    # every int argument, coefficients and exponents too, refuses a float
    # or a string with TypeError instead of answering for a rounded value,
    # and numpy integers give the answer of the Python ints
    want = function(*args)
    for convert in (float, str):
        for bad in _one_integer_swapped(args, convert):
            with pytest.raises(TypeError):
                function(*bad)
    for same in _one_integer_swapped(args, np.int64):
        assert function(*same) == want, same


def test_class_number_against_triple_counts():
    # primitive signed triples of squares summing to n number 24 h(-n)
    # for n = 3 mod 8, n > 3, and 12 h(-8n) at 2n for n = 7 mod 8
    for n in range(11, 500, 8):
        signed = qa.count_signed_representations(n, (1, 1, 1), primitive=True)
        assert signed == 24 * qa.class_number(-n), n
    for n in range(7, 500, 8):
        signed = qa.count_signed_representations(2 * n, (1, 1, 1), primitive=True)
        assert signed == 12 * qa.class_number(-8 * n), n

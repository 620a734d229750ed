"""Series kernels: generators, products, inversion, persistence.

The inversion tests pit three routes against each other: Newton precision
doubling, the word-streamed sequential recurrence, and a direct gather-form
recurrence written here in the plainest possible Python. Agreement of all
three plus the multiplicative identity g * (1/g) = 1 is the correctness
argument everything else leans on.
"""

import random

import pytest

from thetaparity import f2series as f2
from thetaparity.f2series import (
    BitmapFormatError,
    BitSeries,
    NotInvertibleError,
    SparseExponents,
)


def naive_mul_bits(a: int, b: int, limit: int) -> int:
    out = 0
    for i in range(limit):
        if a >> i & 1:
            for j in range(limit - i):
                if b >> j & 1:
                    out ^= 1 << (i + j)
    return out


def naive_inverse_bits(exps, limit: int) -> int:
    # direct gather form of the recurrence: b_0 = 1 and, over GF(2),
    # b_n = sum of b_{n-k} over positive exponents k <= n
    pos = [k for k in exps if 0 < k < limit]
    coeffs = [0] * limit
    coeffs[0] = 1
    for n in range(1, limit):
        acc = 0
        for k in pos:
            if k > n:
                break
            acc ^= coeffs[n - k]
        coeffs[n] = acc
    return sum(bit << n for n, bit in enumerate(coeffs))


def random_series(rng: random.Random, limit: int) -> BitSeries:
    return BitSeries(limit, rng.getrandbits(limit - 1) | 1)


def shift_xor_bits(bits: int, exps, limit: int) -> int:
    # plain big-int sparse product, the reference for the word kernel
    out = 0
    for k in exps:
        if k < limit:
            out ^= bits << k
    return out & ((1 << limit) - 1)


def square_bits(bits: int, limit: int) -> int:
    return sum(1 << 2 * n for n in range(limit) if bits >> n & 1 and 2 * n < limit)


def newton_bits(exps, limit: int) -> int:
    h = 1
    prec = 1
    while prec < limit:
        prec = min(2 * prec, limit)
        h = shift_xor_bits(square_bits(h, prec), exps, prec)
    return h


def every_residue_exponents(rng: random.Random, limit: int) -> tuple:
    # 0, one exponent below limit for each residue mod 64 that fits there,
    # and random extras below 2*limit; those at or past limit must be ignored
    per_residue = {r + 64 * rng.randrange((limit - 1 - r) // 64 + 1)
                   for r in range(min(64, limit))}
    extras = rng.sample(range(2 * limit), k=min(2 * limit, 24))
    return tuple(sorted({0, *per_residue, *extras}))


KERNEL_LENGTHS = (1, 63, 64, 65, 127, 128, 129, 4097)


def test_squares_generator():
    e = f2.squares(30)
    assert e.exponents == (0, 1, 4, 9, 16, 25)
    assert e.limit == 30
    assert f2.squares(1).exponents == (0,)
    assert f2.squares(2).exponents == (0, 1)


def test_pentagonal_generator():
    e = f2.generalized_pentagonals(30)
    assert e.exponents == (0, 1, 2, 5, 7, 12, 15, 22, 26)
    assert f2.generalized_pentagonals(1).exponents == (0,)
    assert f2.generalized_pentagonals(2).exponents == (0, 1)
    # boundary where k(3k-1)/2 fits but k(3k+1)/2 does not
    assert f2.generalized_pentagonals(6).exponents == (0, 1, 2, 5)


def test_sparse_exponents_validation():
    with pytest.raises(ValueError):
        SparseExponents((0, 0), 4)
    with pytest.raises(ValueError):
        SparseExponents((3, 1), 4)
    with pytest.raises(ValueError):
        SparseExponents((0, 4), 4)
    with pytest.raises(ValueError):
        SparseExponents((), 0)


def test_bitseries_validation():
    with pytest.raises(ValueError):
        BitSeries(0, 0)
    with pytest.raises(ValueError):
        BitSeries(3, 1 << 3)
    with pytest.raises(ValueError):
        BitSeries(3, -1)


def test_coefficient_bounds():
    s = BitSeries(4, 0b1011)
    assert [s.coefficient(n) for n in range(4)] == [1, 1, 0, 1]
    with pytest.raises(IndexError):
        s.coefficient(4)
    with pytest.raises(IndexError):
        s.coefficient(-1)
    # the byte view around byte and word boundaries agrees with the int
    rng = random.Random(8)
    for length in (1, 7, 8, 9, 63, 64, 65):
        bits = rng.getrandbits(length) | 1 << (length - 1)
        s = BitSeries(length, bits)
        assert [s.coefficient(n) for n in range(length)] == [
            bits >> n & 1 for n in range(length)]
        with pytest.raises(IndexError):
            s.coefficient(length)
        with pytest.raises(IndexError):
            s.coefficient(-1)


def test_support_and_popcount():
    s = f2.from_exponents(f2.squares(10), 10)
    assert s.bits == (1 << 0) | (1 << 1) | (1 << 4) | (1 << 9)
    assert s.support().tolist() == [0, 1, 4, 9]
    assert s.popcount() == 4


def test_square_examples():
    # (1 + x + x^4)^2 = 1 + x^2 + x^8 over GF(2)
    s = BitSeries(5, 0b10011)
    sq = f2.square(s, 10)
    assert sq == BitSeries(10, (1 << 0) | (1 << 2) | (1 << 8))
    # truncation drops doubled exponents past the limit
    assert f2.square(s, 5) == BitSeries(5, 0b101)
    assert f2.square(BitSeries(1, 1), 1) == BitSeries(1, 1)


def test_square_matches_naive():
    rng = random.Random(7)
    for limit in (1, 2, 3, 63, 64, 65, 200):
        s = random_series(rng, limit)
        got = f2.square(s, limit)
        assert got.bits == naive_mul_bits(s.bits, s.bits, limit)


def test_mul_sparse_and_dense_match_naive():
    rng = random.Random(11)
    for limit in (1, 2, 65, 130):
        a = random_series(rng, limit)
        b = random_series(rng, limit)
        expect = naive_mul_bits(a.bits, b.bits, limit)
        assert f2.mul_dense(a, b, limit).bits == expect
        assert f2.mul_dense(b, a, limit).bits == expect
        e = f2.squares(limit)
        ge = f2.from_exponents(e, limit)
        expect_sparse = naive_mul_bits(a.bits, ge.bits, limit)
        assert f2.mul_sparse(a, e, limit).bits == expect_sparse
        assert f2.mul_dense(a, ge, limit).bits == expect_sparse


@pytest.mark.parametrize("limit", KERNEL_LENGTHS)
def test_word_kernel_routes_match_big_int_reference(limit):
    rng = random.Random(limit)
    for _ in range(4):
        exps = every_residue_exponents(rng, limit)
        assert {k % 64 for k in exps if k < limit} == set(range(min(64, limit)))
        e = SparseExponents(exps, 2 * limit)
        # sources shorter than, equal to and longer than the product
        for length in (max(1, limit // 2), limit, 2 * limit):
            s = random_series(rng, length)
            assert f2.mul_sparse(s, e, limit).bits == shift_xor_bits(s.bits, exps, limit)
        assert f2.invert_newton(e, limit).bits == newton_bits(exps, limit)
    sq = f2.squares(limit).exponents
    h8 = newton_bits(sq, limit)
    for _ in range(3):
        h8 = square_bits(h8, limit)
    assert f2.inverse_seventh_power(limit).bits == shift_xor_bits(h8, sq, limit)


def test_oracles_do_not_use_word_kernel(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the oracles must not call the word kernel")

    monkeypatch.setattr(f2, "_xor_shifted", no_kernel)
    with pytest.raises(AssertionError):
        f2.mul_sparse(BitSeries(4, 1), f2.squares(4), 4)
    inv = f2.invert_recurrence(f2.squares(25), 25)
    assert inv.support().tolist() == [0, 1, 2, 3, 5, 7, 8, 9, 13, 17, 18, 23]
    inv_p = f2.invert_recurrence(f2.generalized_pentagonals(13), 13)
    assert inv_p.support().tolist() == [0, 1, 3, 4, 5, 6, 7, 12]
    g = f2.from_exponents(f2.squares(25), 25)
    assert f2.mul_dense(g, inv, 25) == BitSeries(25, 1)
    assert f2.mul_dense(inv, g, 25) == BitSeries(25, 1)
    rng = random.Random(5)
    for limit in (64, 129):
        a, b = random_series(rng, limit), random_series(rng, limit)
        assert f2.mul_dense(a, b, limit).bits == naive_mul_bits(a.bits, b.bits, limit)


def test_mul_identity():
    one = BitSeries(1, 1)
    s = BitSeries(6, 0b101101)
    assert f2.mul_dense(s, one, 6) == s


def test_invert_trivial_generators():
    assert f2.invert_newton(SparseExponents((0,), 1), 1) == BitSeries(1, 1)
    assert f2.invert_newton(SparseExponents((0,), 9), 9) == BitSeries(9, 1)
    # 1/(1+x) is the geometric series, all coefficients 1
    geo = f2.invert_newton(SparseExponents((0, 1), 8), 8)
    assert geo == BitSeries(8, 0xFF)
    assert f2.invert_recurrence(SparseExponents((0, 1), 8), 8) == geo


def test_invert_requires_unit_constant_term():
    with pytest.raises(NotInvertibleError):
        f2.invert_newton(SparseExponents((1, 4), 8), 8)
    with pytest.raises(NotInvertibleError):
        f2.invert_recurrence(SparseExponents((1, 4), 8), 8)


def test_invert_requires_complete_exponents():
    e = f2.squares(10)
    with pytest.raises(ValueError):
        f2.invert_newton(e, 11)
    with pytest.raises(ValueError):
        f2.invert_recurrence(e, 11)


def test_inverse_theta_first_terms():
    # worked by hand from the recurrence b_n = sum b_{n-k^2}
    inv = f2.invert_newton(f2.squares(14), 14)
    assert inv.support().tolist() == [0, 1, 2, 3, 5, 7, 8, 9, 13]
    inv25 = f2.invert_newton(f2.squares(25), 25)
    assert inv25.support().tolist() == [0, 1, 2, 3, 5, 7, 8, 9, 13, 17, 18, 23]


def test_inverse_pentagonal_first_terms():
    # partition numbers 1,1,2,3,5,7,11,15,22,30,42,56,77: odd at these n
    inv = f2.invert_newton(f2.generalized_pentagonals(13), 13)
    assert inv.support().tolist() == [0, 1, 3, 4, 5, 6, 7, 12]


@pytest.mark.parametrize("gen", [f2.squares, f2.generalized_pentagonals])
def test_inversion_three_routes_agree(gen):
    limit = 1 << 10
    e = gen(limit)
    newton = f2.invert_newton(e, limit)
    streamed = f2.invert_recurrence(e, limit)
    assert newton == streamed
    assert newton.bits == naive_inverse_bits(e.exponents, limit)


def test_inversion_random_generators_agree():
    rng = random.Random(23)
    for trial in range(8):
        limit = rng.randrange(2, 700)
        pool = sorted(rng.sample(range(1, limit), k=min(limit - 1, rng.randrange(1, 20))))
        e = SparseExponents((0, *pool), limit)
        newton = f2.invert_newton(e, limit)
        assert newton == f2.invert_recurrence(e, limit)
        assert newton.bits == naive_inverse_bits(e.exponents, limit)


@pytest.mark.parametrize("gen", [f2.squares, f2.generalized_pentagonals])
def test_inverse_times_generator_is_one(gen):
    limit = 1 << 14
    e = gen(limit)
    inv = f2.invert_newton(e, limit)
    assert f2.mul_sparse(inv, e, limit) == BitSeries(limit, 1)


def test_inverse_seventh_power_against_dense_powers():
    limit = 1 << 12
    inv7 = f2.inverse_seventh_power(limit)
    g = f2.from_exponents(f2.squares(limit), limit)
    g7 = g
    for _ in range(6):
        g7 = f2.mul_dense(g7, g, limit)
    assert f2.mul_dense(g7, inv7, limit) == BitSeries(limit, 1)


def test_inverse_seventh_power_spot_coefficients():
    # at n = 1 mod 16 the coefficient marks perfect squares
    inv7 = f2.inverse_seventh_power(64)
    assert inv7.coefficient(1) == 1
    assert inv7.coefficient(17) == 0
    assert inv7.coefficient(33) == 0
    assert inv7.coefficient(49) == 1


def test_even_coefficients_track_half_squares(b_small):
    # projection of the Frobenius structure: even n is in B iff n/2 is square
    import math

    for n in range(0, b_small.length, 2):
        half = n // 2
        root = math.isqrt(half)
        assert b_small.coefficient(n) == (1 if root * root == half else 0)


def test_f2s_roundtrip(tmp_path):
    path = tmp_path / "b.f2s"
    s = f2.invert_newton(f2.squares(100), 100)
    f2.write_f2s(s, path)
    assert f2.read_f2s(path) == s


def test_f2s_exact_layout(tmp_path):
    path = tmp_path / "tiny.f2s"
    f2.write_f2s(BitSeries(65, (1 << 64) | 0b1011), path)
    blob = path.read_bytes()
    assert blob[:4] == b"F2S1"
    assert int.from_bytes(blob[4:12], "little") == 65
    assert len(blob) == 12 + 16  # two 64-bit words
    assert int.from_bytes(blob[12:20], "little") == 0b1011
    assert int.from_bytes(blob[20:28], "little") == 1


def test_f2s_reader_rejects_damage(tmp_path):
    path = tmp_path / "x.f2s"
    f2.write_f2s(BitSeries(65, 1), path)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.f2s"
    bad.write_bytes(b"F2S2" + bytes(blob[4:]))
    with pytest.raises(BitmapFormatError):
        f2.read_f2s(bad)

    bad.write_bytes(bytes(blob[:-1]))  # truncated payload
    with pytest.raises(BitmapFormatError):
        f2.read_f2s(bad)

    bad.write_bytes(bytes(blob) + b"\x00" * 8)  # oversized payload
    with pytest.raises(BitmapFormatError):
        f2.read_f2s(bad)

    dirty = bytearray(blob)
    dirty[-1] |= 0x80  # padding bit past coefficient 65
    bad.write_bytes(bytes(dirty))
    with pytest.raises(BitmapFormatError):
        f2.read_f2s(bad)

    bad.write_bytes(b"F2S1" + (0).to_bytes(8, "little"))
    with pytest.raises(BitmapFormatError):
        f2.read_f2s(bad)

    bad.write_bytes(b"F2")
    with pytest.raises(BitmapFormatError):
        f2.read_f2s(bad)

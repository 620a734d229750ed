"""Series kernels: generators, products, inversion, persistence.

The inversion tests pit three routes against each other: Newton precision
doubling, the word-streamed sequential recurrence, and a direct gather-form
recurrence written here in the plainest possible Python. Agreement of all
three plus the multiplicative identity g * (1/g) = 1 is the correctness
argument everything else leans on.
"""

import random
import tracemalloc

import numpy as np
import pytest

import thetaparity as tp
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


def every_class_residue_exponents(rng: random.Random, limit: int, s: int) -> tuple:
    # 0 and, for each class c mod 2^s, exponents k = c + 2^s * j below limit
    # whose leaf exponents j = k >> s hit every residue mod 64 that fits in
    # the class, plus random extras below 2*limit that must be ignored
    m = 1 << s
    exps = {0}
    for c in range(min(m, limit)):
        top = (limit - 1 - c) // m
        for r in range(min(64, top + 1)):
            exps.add(c + m * (r + 64 * rng.randrange((top - r) // 64 + 1)))
    exps.update(rng.sample(range(2 * limit), k=min(2 * limit, 24)))
    return tuple(sorted(exps))


def leaf_residues(exps, limit: int, s: int) -> dict:
    m = 1 << s
    return {c: {(k >> s) % 64 for k in exps if k < limit and k % m == c}
            for c in range(min(m, limit))}


def frobenius_product_bits(bits: int, exps, s: int, limit: int) -> int:
    # g * h(x^(2^s)) from the plain references: s squarings, one product
    for _ in range(s):
        bits = square_bits(bits, limit)
    return shift_xor_bits(bits, exps, limit)


KERNEL_LENGTHS = (1, 2, 3, 63, 64, 65, 127, 128, 129, 4097)


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
    s = BitSeries(3, 0b101)
    with pytest.raises(AttributeError):
        s.length = 4
    with pytest.raises(AttributeError):
        del s.data
    assert (s.length, s.bits) == (3, 0b101)


def test_bytes_constructor():
    rng = random.Random(14)
    for length in (1, 63, 64, 65, 200):
        bits = rng.getrandbits(length) | 1 << (length - 1)
        raw = bits.to_bytes(8 * -(-length // 64), "little")
        for buf in (raw, bytearray(raw), memoryview(raw)):
            s = BitSeries(length, buf)
            assert s == BitSeries(length, bits)
            assert s.bits == bits
            assert s.data.readonly
        # one byte too few, one too many, one word too many
        for wrong in (raw[:-1], raw + b"\0", raw + bytes(8)):
            with pytest.raises(ValueError):
                BitSeries(length, wrong)
        # the lowest and the highest padding bit, where the last word has any
        if length % 64:
            for k in (length, 8 * len(raw) - 1):
                with pytest.raises(ValueError):
                    BitSeries(length, (bits | 1 << k).to_bytes(len(raw), "little"))


def test_coefficient_bounds():
    s = BitSeries(4, 0b1011)
    assert [s.coefficient(n) for n in range(4)] == [1, 1, 0, 1]
    with pytest.raises(IndexError):
        s.coefficient(4)
    with pytest.raises(IndexError):
        s.coefficient(-1)
    # single-word reads around byte and word boundaries agree with the int
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


def int_words(bits: int, length: int) -> np.ndarray:
    # the int cut into 64-bit words by shifts, not through the constructor
    return np.array([bits >> 64 * w & (1 << 64) - 1 for w in range(-(-length // 64))],
                    dtype="<u8")


def test_word_constructor():
    rng = random.Random(12)
    for length in (1, 63, 64, 65, 200):
        bits = rng.getrandbits(length) | 1 << (length - 1)
        s = BitSeries(length, int_words(bits, length))
        assert s == BitSeries(length, bits)
        assert s.bits == bits
        with pytest.raises(ValueError):
            s.words[0] = 0
        # one word too few and one too many
        for nwords in (len(s.words) - 1, len(s.words) + 1):
            with pytest.raises(ValueError):
                BitSeries(length, np.zeros(nwords, dtype="<u8"))
        # a set padding bit, where the last word has any (64 has none)
        if length % 64:
            with pytest.raises(ValueError):
                BitSeries(length, int_words(bits | 1 << length, length))
    for words in (np.zeros(2, dtype=">u8"), np.zeros(2, dtype=np.int64),
                  np.zeros(4, dtype=np.uint32), np.zeros((2, 1), dtype="<u8"),
                  np.zeros(4, dtype="<u8")[::2], [0, 0]):
        with pytest.raises(ValueError):
            BitSeries(128, words)
    # the int 1 is the identity that g * (1/g) computes on words
    for limit in (1, 63, 64, 65, 4097):
        e = f2.squares(limit)
        assert f2.mul_sparse(f2.invert_newton(e, limit), e, limit) == BitSeries(limit, 1)


def test_kernels_scans_and_io_never_build_the_int(monkeypatch, tmp_path):
    def no_int(self):
        raise AssertionError("the word form must not be converted to an int")

    monkeypatch.setattr(BitSeries, "bits", property(no_int))
    limit = 4097
    b = tp.build_B(limit)
    tp.build_Bstar(limit)
    inv7 = f2.inverse_seventh_power(limit)
    assert f2.mul_sparse(b, f2.squares(limit), limit) == BitSeries(limit, 1)
    f2.square(b, limit)
    f2.write_f2s(b, tmp_path / "b.f2s")
    assert f2.read_f2s(tmp_path / "b.f2s") == b
    tp.interval_counts(b, 16, 16)
    tp.alpha_sweep(b, 256, 16)
    tp.residue_class_counts(b, limit)
    tp.non15_count(b, limit - 1)
    members = [tp.StatementId[name] for name in
               ("T1_1", "T1_2", "T1_4", "T3_6", "T3_8", "L3_1", "L3_3", "L3_5")]
    reports = tp.run_suite(members, 0, 2000, tp.SeriesContext(b, inv7))
    assert all(r.violated == 0 for r in reports)


def test_support_and_popcount():
    s = f2.from_exponents(f2.squares(10), 10)
    assert s.bits == (1 << 0) | (1 << 1) | (1 << 4) | (1 << 9)
    assert s.support().tolist() == [0, 1, 4, 9]
    assert s.popcount() == 4
    assert repr(s) == "BitSeries(length=10, popcount=4)"
    with pytest.raises(ValueError):
        s.popcount(-1)


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


@pytest.mark.parametrize("limit", KERNEL_LENGTHS)
def test_parity_split_matches_big_int_reference(limit):
    # g * h(x^(2^s)) for s = 0..3 with exponent lists whose leaf exponents
    # hit every residue mod 64 in each class mod 2^s, and for g with no odd
    # exponent or with no even exponent but 0
    rng = random.Random(1000 + limit)
    covering = [every_class_residue_exponents(rng, limit, s) for s in range(4)]
    for s, exps in enumerate(covering):
        m = 1 << s
        for c, residues in leaf_residues(exps, limit, s).items():
            assert residues == set(range(min(64, (limit - 1 - c) // m + 1)))
    evens = tuple(range(0, 2 * limit, 2))
    odds = (0, *range(1, 2 * limit, 2))
    for exps in (*covering, evens, odds):
        e = SparseExponents(exps, 2 * limit)
        assert f2.invert_newton(e, limit).bits == newton_bits(exps, limit)
        for s in range(4):
            # sources exactly as long as the leaves, and longer
            for length in (-(-limit >> s), limit):
                h = random_series(rng, length)
                got = BitSeries(limit, f2._mul_frobenius(h.words, exps, s, limit))
                assert got.bits == frobenius_product_bits(h.bits, exps, s, limit)


@pytest.mark.parametrize("limit", KERNEL_LENGTHS)
def test_kernel_window_is_a_suffix_of_the_product(limit):
    # words lo.. of the product, for windows that start at 0, 1, half way and
    # at the last word, exponents below and above 64*lo and every residue
    rng = random.Random(2000 + limit)
    nwords = -(-limit // 64)
    for lo in sorted({0, 1, nwords // 2, nwords - 1} & set(range(nwords))):
        # the last exponent below the window's first bit, the one on it and
        # the largest one below limit
        edges = {max(0, 64 * lo - 1), 64 * lo, limit - 1}
        for exps in (tuple(sorted({*every_residue_exponents(rng, limit), *edges})),
                     f2.generalized_pentagonals(2 * limit).exponents):
            for length in (max(1, limit // 2), limit, 2 * limit):
                s = random_series(rng, length)
                full = int_words(shift_xor_bits(s.bits, exps, limit), limit)
                got = f2._xor_shifted(s.words, exps, limit, lo, nwords)
                assert np.array_equal(got, full[lo:])


def kernel_builds(limit: int) -> list:
    # every kernel route at a length where the leaf exponents hit every
    # residue mod 64 and the Newton windows start past word 0
    rng = random.Random(77)
    s = random_series(rng, limit)
    pent = f2.generalized_pentagonals(limit)
    spread = SparseExponents(every_residue_exponents(rng, limit), 2 * limit)
    assert {k % 64 for k in spread.exponents if k < limit} == set(range(64))
    return [lambda: f2.invert_newton(f2.squares(limit), limit),
            lambda: f2.invert_newton(pent, limit),
            lambda: f2.inverse_seventh_power(limit),
            lambda: f2.mul_sparse(s, pent, limit),
            lambda: f2.mul_sparse(s, spread, limit),
            lambda: f2.square(s, limit)]


def test_chunk_boundaries_do_not_change_results(monkeypatch):
    # the carry and the spread run in chunks of _CHUNK words or bytes; with
    # chunks of 3 every build crosses many chunk boundaries
    builds = kernel_builds(4097)
    expect = [build() for build in builds]
    monkeypatch.setattr(f2, "_CHUNK", 3)
    assert [build() for build in builds] == expect


@pytest.mark.parametrize("tile", (1, 3, 5))
def test_tile_boundaries_do_not_change_results(monkeypatch, tile):
    # each leaf is computed and spread _TILE words at a time; with tiles of a
    # few words every leaf spans many tiles, and the Newton windows start
    # at words that are not multiples of the tile
    builds = kernel_builds(4097)
    expect = [build() for build in builds]
    monkeypatch.setattr(f2, "_TILE", tile)
    calls = record_kernel_calls(monkeypatch)
    for build, want in zip(builds, expect):
        calls.clear()
        assert build() == want
        leaves = leaf_windows(calls)
        assert len(calls) > len(leaves)
        assert all(hi - lo <= tile for _, lo, hi in calls)


def traced_peak(fn):
    # (result, peak bytes traced while fn ran, bytes traced before it)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1], base
    finally:
        tracemalloc.stop()


def test_builds_hold_one_output_and_one_leaf():
    # peak traced bytes per byte of the result's words, where the fixed-size
    # spread and carry chunks and the exponent lists are small: the output
    # and, per leaf tile, the tile and one residue sum of its size. At
    # 2^23+1 a Newton leaf window is one tile, at 2^25+1 the top ones span
    # three; 1/g^7 also holds 1/g to an eighth of the length. A sparse series
    # expanded by from_exponents is its output buffer alone
    for limit, bounds in (((1 << 23) + 1, (2.0, 2.0, 2.0)),
                          ((1 << 25) + 1, (1.6, 1.6, 1.6))):
        for gen in (f2.squares, f2.generalized_pentagonals):
            e = gen(limit)
            expanded, peak, _ = traced_peak(lambda: f2.from_exponents(e, limit))
            assert peak <= 1.1 * expanded.words.nbytes, (gen.__name__, limit)
        for build, bound in zip((tp.build_B, tp.build_Bstar,
                                 f2.inverse_seventh_power), bounds):
            result, peak, _ = traced_peak(lambda: build(limit))
            assert peak <= bound * result.words.nbytes, (build.__name__, limit)
    _, peak, base = traced_peak(result.popcount)
    assert peak - base <= 0.25 * result.words.nbytes


def record_kernel_calls(monkeypatch) -> list:
    # (nbits, lo, hi) of every word-kernel call, which still runs
    calls = []
    kernel = f2._xor_shifted

    def recording(words, exponents, nbits, lo, hi):
        calls.append((nbits, lo, hi))
        return kernel(words, exponents, nbits, lo, hi)

    monkeypatch.setattr(f2, "_xor_shifted", recording)
    return calls


def leaf_windows(calls) -> list:
    # (nbits, lo) per leaf: a leaf's tiles are contiguous kernel calls on one
    # length, the first from the leaf's window start and the last ending at
    # the leaf's last word
    leaves, end = [], None
    for nbits, lo, hi in calls:
        if end is None:
            leaves.append((nbits, lo))
        else:
            assert (nbits, lo) == (leaves[-1][0], end), "tiles leave a gap or overlap"
        assert lo < hi
        end = None if hi == -(-nbits // 64) else hi
    assert end is None, "the last leaf stops short of its last word"
    return leaves


@pytest.mark.parametrize("k", (4, 9, 13))
def test_newton_ladder_runs_half_length_products(monkeypatch, k):
    # top-down ladder L, ceil(L/2), ..., 2 with each step split by parity:
    # leaves of at most ceil(L/2) coefficients, and no extra pass at 2^k+1.
    # The leaf lengths of one step add up to its precision, so they total
    # L + ceil(L/2) + ... + 2, which is 2L + k - 2 at L = 2^k + 1.
    calls = record_kernel_calls(monkeypatch)
    for limit in (2**k + 1, 2**k, 2**k - 1):
        for gen in (f2.squares, f2.generalized_pentagonals):
            calls.clear()
            f2.invert_newton(gen(limit), limit)
            lengths = [nbits for nbits, _ in leaf_windows(calls)]
            assert max(lengths) <= (limit + 1) // 2 + 1
            assert sum(lengths) < 2 * limit + limit.bit_length()


@pytest.mark.parametrize("k", (4, 9, 13))
def test_newton_leaves_skip_known_prefix(monkeypatch, k):
    # a step from p known coefficients to P runs the even leaf on ceil(P/2)
    # and the odd one on floor(P/2) coefficients, and both start at word
    # floor(floor(p/2)/64): below coefficient floor(p/2) they reproduce h
    calls = record_kernel_calls(monkeypatch)
    for limit in (2**k + 1, 2**k, 2**k - 1):
        for gen in (f2.squares, f2.generalized_pentagonals):
            ladder = [limit]
            while ladder[-1] > 2:
                ladder.append((ladder[-1] + 1) // 2)
            expect = []
            for prec in reversed(ladder):
                lo = (prec + 1) // 2 // 2 // 64
                expect += [((prec + 1) // 2, lo), (prec // 2, lo)]
            calls.clear()
            f2.invert_newton(gen(limit), limit)
            assert leaf_windows(calls) == expect
            assert any(lo for _, lo in leaf_windows(calls)) == (k > 4)


@pytest.mark.parametrize("k", (4, 9, 13))
def test_seventh_power_runs_eighth_length_products(monkeypatch, k):
    calls = record_kernel_calls(monkeypatch)
    for limit in (2**k + 1, 2**k, 2**k - 1):
        calls.clear()
        f2.inverse_seventh_power(limit)
        lengths = [nbits for nbits, _ in leaf_windows(calls)]
        assert max(lengths) <= (limit + 7) // 8 + 1
        assert sum(lengths) < 2 * limit


def test_oracles_do_not_use_word_kernel(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the oracles must not call the word kernel")

    monkeypatch.setattr(f2, "_xor_shifted", no_kernel)
    monkeypatch.setattr(f2, "_mul_frobenius", no_kernel)
    with pytest.raises(AssertionError):
        f2.mul_sparse(BitSeries(4, 1), f2.squares(4), 4)
    with pytest.raises(AssertionError):
        f2.invert_newton(f2.squares(4), 4)
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


def test_mul_sparse_requires_complete_exponents():
    # squares(100) says nothing about g at 100 and above, so a product to
    # 1000 would be the product by a truncated g
    with pytest.raises(ValueError, match="complete only below 100, need 1000"):
        f2.mul_sparse(tp.build_B(1000), f2.squares(100), 1000)
    # nor can its bitmap to 100 hold the squares from 10 on
    with pytest.raises(ValueError, match="complete only below 10, need 100"):
        f2.from_exponents(f2.squares(10), 100)


@pytest.mark.parametrize("name, args", [
    ("squares", ()),
    ("generalized_pentagonals", ()),
    ("from_exponents", (SparseExponents((0,), 8),)),
    ("square", (BitSeries(8, 1),)),
    ("mul_sparse", (BitSeries(8, 1), SparseExponents((0,), 8))),
    ("mul_dense", (BitSeries(8, 1), BitSeries(8, 1))),
    ("invert_newton", (SparseExponents((0,), 8),)),
    ("invert_recurrence", (SparseExponents((0,), 8),)),
    ("inverse_seventh_power", ()),
])
def test_public_functions_reject_limit_below_one(name, args):
    for limit in (0, -1):
        with pytest.raises(ValueError, match="limit must be >= 1"):
            getattr(f2, name)(*args, limit)


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


def test_f2s_load_is_one_read_only_buffer(tmp_path):
    # the loaded payload is the series' one buffer: `words` is numpy's
    # read-only view of the same memory, built without a copy
    path = tmp_path / "b.f2s"
    f2.write_f2s(f2.invert_newton(f2.squares(4097), 4097), path)
    s = f2.read_f2s(path)
    payload = s.data.obj
    assert isinstance(payload, bytes) and len(payload) == 8 * 65
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        words = s.words
        assert tracemalloc.get_traced_memory()[1] - base < 1024
    finally:
        tracemalloc.stop()
    assert words is s.words
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0] = 0
    assert np.shares_memory(words, np.frombuffer(payload, dtype=np.uint8))


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
    # a prefix read checks the whole file's framing and padding too
    path = tmp_path / "x.f2s"
    f2.write_f2s(BitSeries(65, 1), path)
    blob = bytearray(path.read_bytes())
    dirty = bytearray(blob)
    dirty[-1] |= 0x80  # padding bit past coefficient 65
    damaged = [
        b"F2S2" + bytes(blob[4:]),  # bad magic
        bytes(blob[:-1]),  # truncated payload
        bytes(blob) + b"\x00" * 8,  # oversized payload
        bytes(dirty),
        b"F2S1" + (0).to_bytes(8, "little"),  # zero count
        b"F2",  # short header
    ]
    bad = tmp_path / "bad.f2s"
    for limit in (None, 1, 64):
        for content in damaged:
            bad.write_bytes(content)
            with pytest.raises(BitmapFormatError):
                f2.read_f2s(bad, limit)


def test_f2s_prefix_read_holds_whole_words(tmp_path):
    # the words holding the first max(limit, 1) coefficients, as one buffer
    path = tmp_path / "b.f2s"
    f2.write_f2s(f2.invert_newton(f2.squares(200), 200), path)
    whole = f2.read_f2s(path)
    expected = {-5: 64, 0: 64, 1: 64, 63: 64, 64: 64, 65: 128,
                199: 200, 200: 200, 201: 200, None: 200}
    for limit, length in expected.items():
        s = f2.read_f2s(path, limit)
        assert s.length == length
        assert isinstance(s.data.obj, bytes) and len(s.data) == 8 * ((length + 63) // 64)
        assert s.data == whole.data[:len(s.data)]

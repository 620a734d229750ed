"""Acceptance gate: eight end-to-end criteria, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear; each
test is one criterion and prints `[PASS]` or `[FAIL]` with the measured
numbers.

Known red: criterion 2 requires the final census interval to come out at
x/2 + 7, but the computed value is x/2 - 7. The computation is confirmed by
three routes that share no code: the multiplicative identity g * (1/g) = 1
over the full 2^23-coefficient range (a reciprocal is unique, so this pins
every bit), a numpy recount from the support array, and the sequential
recurrence oracle. The required value is asserted anyway rather than edited
to match; the supplementary tests at the bottom lock the computed table and
carry the verification routes.
"""

import math

import pytest

import thetaparity as tp
from thetaparity import quadarith as qa


@pytest.fixture(scope="module")
def big_b():
    return tp.build_B((1 << 23) + 1)


@pytest.fixture(scope="module")
def ctx_acc(big_b):
    return tp.SeriesContext(big_b, tp.inverse_seventh_power(10 ** 5 + 1))


def criterion(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def test_c1_first_terms():
    support = tp.build_B(14).support().tolist()
    criterion("C1 first-terms exactness",
              support == [0, 1, 2, 3, 5, 7, 8, 9, 13],
              f"support {support}")


def test_c2_interval_census(big_b):
    x = 1 << 16
    required_offsets = (13, 94, -231, 207, -120, 14, -270, 7)
    required = tuple(x // 2 + d for d in required_offsets)
    counts = tp.interval_counts(big_b, x, 8).counts
    offsets = tuple(c - x // 2 for c in counts)
    criterion("C2 interval census at x=2^16", counts == required,
              f"computed offsets {offsets}, required {required_offsets}")


def test_c3_alpha_sweep(big_b):
    sweep = tp.alpha_sweep(big_b, 1 << 19, 1 << 10)
    ok = (len(sweep.rows) == 512
          and sweep.all_within()  # strictly inside (-1.1, 0.58), exact
          and sweep.argmin.x == 5 * 2 ** 10
          and sweep.argmax.x == 37 * 2 ** 10)
    criterion("C3 alpha sweep bounds and extremes", ok,
              f"argmin x={sweep.argmin.x} alpha={sweep.argmin.alpha:.4f}, "
              f"argmax x={sweep.argmax.x} alpha={sweep.argmax.alpha:.4f}")


def test_c4_statement_suite(ctx_acc):
    narrow = tp.run_suite(list(tp.StatementId), 0, 10 ** 4, ctx_acc)
    wide_ids = [tp.StatementId.T1_1, tp.StatementId.T1_2, tp.StatementId.T1_4,
                tp.StatementId.T3_6, tp.StatementId.T3_8, tp.StatementId.L3_1,
                tp.StatementId.L3_3, tp.StatementId.L3_5]
    wide = tp.run_suite(wide_ids, 0, 10 ** 5, ctx_acc)
    bad = [r for r in narrow + wide if r.violated]
    detail = "all statements to 1e4, eight statements to 1e5"
    if bad:
        detail = "; ".join(f"{r.statement.name} first at {r.first_violation}"
                           for r in bad)
    criterion("C4 statement suite zero violations", not bad, detail)


def test_c5_oracle_equivalence():
    limit = 1 << 16
    agree = True
    for gen in (tp.squares, tp.generalized_pentagonals):
        e = gen(limit)
        agree = agree and (tp.invert_newton(e, limit)
                           == tp.invert_recurrence(e, limit))
    big = 1 << 20
    g = tp.from_exponents(tp.squares(big), big)
    inv = tp.invert_newton(tp.squares(big), big)
    product_is_one = tp.mul_dense(g, inv, big) == tp.BitSeries(big, 1)
    criterion("C5 inversion oracle equivalence",
              agree and product_is_one,
              "newton == recurrence at 2^16 (both generators), "
              "g * (1/g) == 1 at 2^20")


def test_c6_gauss_identities_and_genus():
    first_bad = None
    for n in range(11, 10 ** 4, 8):
        signed = qa.count_signed_representations(n, (1, 1, 1), primitive=True)
        if signed != 24 * qa.class_number(-n):
            first_bad = ("24h", n)
            break
    if first_bad is None:
        for n in range(7, 10 ** 4, 8):
            signed = qa.count_signed_representations(2 * n, (1, 1, 1),
                                                     primitive=True)
            if signed != 12 * qa.class_number(-8 * n):
                first_bad = ("12h", n)
                break
    genus_checked = 0
    if first_bad is None:
        for n in range(3, 10 ** 4, 8):
            pairs = qa.factorize(n).pairs
            m = len(pairs)
            if m < 3 or any(c != 1 for _, c in pairs):
                continue
            genus_checked += 1
            if qa.class_number(-n) % (1 << (m - 1)):
                first_bad = ("genus", n)
                break
    criterion("C6 Gauss identities and genus divisibility",
              first_bad is None,
              f"n=3 unit exception excluded, {genus_checked} squarefree "
              f"genus cases" if first_bad is None else f"failed {first_bad}")


def partition_parities(n_max: int) -> list:
    # Euler's pentagonal recurrence with explicit alternating signs, carried
    # mod 4 so the subtractions stay visible; the parity is the low bit
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total % 4
    return [v & 1 for v in p]


def test_c7_partition_parity():
    n_max = 10 ** 4
    bstar = tp.build_Bstar(n_max + 1)
    parities = partition_parities(n_max)
    mismatches = [n for n in range(n_max + 1)
                  if bstar.coefficient(n) != parities[n]]
    criterion("C7 partition parity to 1e4", not mismatches,
              "pentagonal reciprocal == Euler recurrence parities"
              if not mismatches else f"first mismatch n={mismatches[0]}")


def test_c8_density_trend(big_b):
    n20 = tp.non15_count(big_b, 1 << 20)
    n23 = tp.non15_count(big_b, 1 << 23)
    golden = (124694, 872769)  # frozen from the first verified run
    r20 = n20 / (1 << 20)
    r23 = n23 / (1 << 23)
    criterion("C8 density trend r(2^23) < r(2^20)",
              (n20, n23) == golden and r23 < r20,
              f"r(2^20)={r20:.6f}, r(2^23)={r23:.6f}")


# --- supplementary locks behind the criteria, not criteria themselves ---


def test_full_bitmap_multiplicative_identity(big_b):
    # the route that makes the C2 analysis airtight: g * h = 1 over the whole
    # range means h is exactly the reciprocal, bit for bit
    limit = big_b.length
    product = tp.mul_sparse(big_b, tp.squares(limit), limit)
    assert product == tp.BitSeries(limit, 1)


def test_full_bitmap_identity_by_dense_product(big_b):
    # mul_sparse and invert_newton share one word kernel, so a kernel fault
    # could cancel in the identity above; mul_dense multiplies on big ints
    # without that kernel
    limit = big_b.length
    g = tp.from_exponents(tp.squares(limit), limit)
    assert tp.mul_dense(g, big_b, limit) == tp.BitSeries(limit, 1)


def test_full_range_even_projection(big_b):
    # even members across the whole bitmap are exactly the doubled squares
    limit = big_b.length
    nbytes = (limit + 7) // 8
    even_mask = int.from_bytes(b"\x55" * nbytes, "little") & ((1 << limit) - 1)
    doubled = tuple(2 * k * k for k in range(math.isqrt((limit - 1) // 2) + 1))
    expected = tp.from_exponents(tp.SparseExponents(doubled, limit), limit)
    assert big_b.bits & even_mask == expected.bits


def test_census_offsets_computed_lock(big_b):
    # regression lock on the computed table; C2 above asserts the required
    # one and is expected to stay red until the reference value changes
    counts = tp.interval_counts(big_b, 1 << 16, 8).counts
    offsets = tuple(c - (1 << 15) for c in counts)
    assert offsets == (13, 94, -231, 207, -120, 14, -270, -7)

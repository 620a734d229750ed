"""Census scans: interval counts, alpha sweeps, residue tables.

Every scan of the byte view is recounted here from the bits integer, a route
that shares no code with the view. Each recount also runs on a bitmap whose
length is not a multiple of 8. The exact alpha order on (d, x) pairs gets
boundary cases where a float comparison would be undecidable, and a seeded
property test against 60-digit decimal arithmetic.
"""

import decimal
import math
import random

import pytest

import thetaparity as tp
from thetaparity.census import _ALPHA_HIGH, _ALPHA_LOW, SweepRow, _alpha_order
from thetaparity.f2series import BitSeries, InsufficientBitmapError


def support_set(b):
    return {n for n in range(b.length) if b.bits >> n & 1}


@pytest.fixture(scope="module")
def b_ragged():
    """Membership bitmap of B whose last byte is partly padding."""
    return tp.build_B(4093)


def test_build_b_first_terms():
    assert tp.build_B(14).support().tolist() == [0, 1, 2, 3, 5, 7, 8, 9, 13]


def test_build_bstar_first_terms():
    assert tp.build_Bstar(13).support().tolist() == [0, 1, 3, 4, 5, 6, 7, 12]


def test_interval_counts_tiny(b_small):
    # the one candidate below 16 is n = 15, which is not in B
    table = tp.interval_counts(b_small, 1, 1)
    assert table.counts == (0,)
    assert (table.modulus, table.residue, table.interval_width) == (16, 15, 16)
    assert table.total == 0


def test_interval_counts_match_support_recount(b_small, b_ragged):
    rng = random.Random(3)
    for b in (b_small, b_ragged):
        members = support_set(b)
        for _ in range(20):
            x = rng.randrange(1, 40)
            intervals = rng.randrange(0, b.length // (16 * x) + 1)
            table = tp.interval_counts(b, x, intervals)
            assert len(table.counts) == intervals
            for j, count in enumerate(table.counts):
                lo, hi = j * 16 * x, (j + 1) * 16 * x
                expect = sum(1 for n in range(lo + 15, hi, 16) if n in members)
                assert count == expect, (b.length, x, j)
            assert table.total == sum(table.counts)


def test_interval_counts_errors(b_small):
    with pytest.raises(ValueError):
        tp.interval_counts(b_small, 0, 1)
    with pytest.raises(InsufficientBitmapError) as exc:
        tp.interval_counts(tp.build_B(16), 2, 1)
    assert exc.value.needed == 32 and exc.value.have == 16


def test_alpha_sweep_first_row(b_small):
    sweep = tp.alpha_sweep(b_small, 4, 1)
    first = sweep.rows[0]
    assert (first.x, first.beta) == (1, 0)
    assert first.alpha == -0.5


def test_alpha_sweep_betas_are_prefix_sums(b_small):
    x, k = 4, 16
    table = tp.interval_counts(b_small, x, k)
    sweep = tp.alpha_sweep(b_small, x * k, x)
    running = 0
    for row, count in zip(sweep.rows, table.counts):
        running += count
        assert row.beta == running
        assert row.x == (sweep.rows.index(row) + 1) * x
    assert math.isclose(sweep.rows[-1].alpha,
                        (running - x * k / 2) / math.sqrt(x * k))


def test_alpha_sweep_match_support_recount(b_small, b_ragged):
    for b in (b_small, b_ragged):
        members = support_set(b)
        for max_x, step in ((16, 3), (b.length // 16, 7)):
            sweep = tp.alpha_sweep(b, max_x, step)
            assert [r.x for r in sweep.rows] == list(range(step, max_x + 1, step))
            for row in sweep.rows:
                expect = sum(1 for n in range(15, 16 * row.x, 16) if n in members)
                assert row.beta == expect, (b.length, row.x)


def test_alpha_sweep_errors(b_small):
    with pytest.raises(ValueError):
        tp.alpha_sweep(b_small, 4, 0)
    with pytest.raises(ValueError):
        tp.alpha_sweep(b_small, 2, 4)
    with pytest.raises(InsufficientBitmapError):
        tp.alpha_sweep(tp.build_B(16), 2, 1)


def test_alpha_extremes_tie_break_earliest():
    # bit 31 is the only member: alpha = -0.5 at x = 1 and again at x = 4
    b = BitSeries(64, 1 << 31)
    sweep = tp.alpha_sweep(b, 4, 1)
    alphas = [round(r.alpha, 6) for r in sweep.rows]
    assert alphas == [-0.5, 0.0, pytest.approx(-0.288675, abs=1e-6), -0.5]
    assert sweep.argmin.x == 1
    assert sweep.argmax.x == 2


def pair(x, beta):
    """The (d, x) pair of a sweep row: alpha = d / (2 sqrt(x)), d = 2 beta - x."""
    return (2 * beta - x, x)


def test_exact_alpha_comparator_boundaries():
    # at x = 2500, beta = 1279 alpha is exactly 0.58
    assert _alpha_order(pair(2500, 1279), _ALPHA_HIGH) == 0
    assert _alpha_order(pair(2500, 1278), _ALPHA_HIGH) < 0
    assert _alpha_order(pair(2500, 1280), _ALPHA_HIGH) > 0
    # at x = 12100, beta = 5929 it is exactly -1.1
    assert _alpha_order(pair(12100, 5929), _ALPHA_LOW) == 0
    assert _alpha_order(pair(12100, 5930), _ALPHA_LOW) > 0
    assert _alpha_order(pair(12100, 5928), _ALPHA_LOW) < 0
    # alpha = 0 at x = 100, beta = 50, and against zero at another x
    assert _alpha_order(pair(100, 50), (0, 1)) == 0
    assert _alpha_order(_ALPHA_LOW, _ALPHA_HIGH) < 0


def test_exact_row_comparator():
    # equal alpha at different x
    assert _alpha_order(pair(1, 0), pair(4, 1)) == 0
    assert _alpha_order(pair(9, 6), pair(4, 3)) == 0
    assert _alpha_order(pair(4, 1), pair(9, 3)) == 0
    # opposite signs, then the same sign
    assert _alpha_order(pair(1, 0), pair(1, 1)) < 0
    assert _alpha_order(pair(1, 1), pair(1, 0)) > 0
    assert _alpha_order(pair(4, 3), pair(9, 7)) < 0


def decimal_alpha(p):
    d, x = p
    return decimal.Decimal(d) / (2 * decimal.Decimal(x).sqrt())


def test_alpha_order_matches_decimal():
    # 60 digits resolve any two distinct alphas of these sizes by far more
    # than the tie threshold, and put equal alphas well inside it
    tie = decimal.Decimal("1e-45")
    rng = random.Random(8)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        assert decimal_alpha(_ALPHA_LOW) == decimal.Decimal("-1.1")
        assert decimal_alpha(_ALPHA_HIGH) == decimal.Decimal("0.58")
        seen = [_ALPHA_LOW, _ALPHA_HIGH]
        for _ in range(300):
            x = rng.randrange(1, 10 ** rng.randrange(1, 13))
            # beta near a bound, near x / 2, or anywhere in [0, x]
            alpha = rng.choice((-1.1, 0.58, 0.0, None))
            if alpha is None:
                beta = rng.randrange(x + 1)
            else:
                beta = round(x / 2 + alpha * math.sqrt(x)) + rng.randrange(-2, 3)
                beta = min(x, max(0, beta))
            p = pair(x, beta)
            k = rng.randrange(2, 50)
            same = (k * p[0], k * k * p[1])  # the same alpha at k^2 x
            for q in (same, rng.choice(seen), _ALPHA_LOW, _ALPHA_HIGH):
                diff = decimal_alpha(p) - decimal_alpha(q)
                expect = 0 if abs(diff) < tie else (diff > 0) - (diff < 0)
                assert _alpha_order(p, q) == expect, (p, q)
                assert _alpha_order(q, p) == -expect, (p, q)
            seen.append(p)


def test_all_within_strictness():
    row = SweepRow(2500, 1279, 0.58)  # alpha exactly 0.58
    sweep = tp.AlphaSweep((row,), row, row)
    assert not sweep.all_within()
    row = SweepRow(2500, 1278, 0.56)
    sweep = tp.AlphaSweep((row,), row, row)
    assert sweep.all_within()
    row = SweepRow(12100, 5929, -1.1)  # alpha exactly -1.1
    sweep = tp.AlphaSweep((row,), row, row)
    assert not sweep.all_within()


def test_residue_class_counts_small():
    b = tp.build_B(14)
    counts = tp.residue_class_counts(b, 14)
    expect = {0: 1, 1: 1, 2: 1, 3: 1, 5: 1, 7: 1, 8: 1, 9: 1, 13: 1}
    for r in range(16):
        assert counts[r] == expect.get(r, 0), r
    assert counts.sum() == b.popcount()


def test_residue_class_counts_match_support(b_small, b_ragged):
    for b in (b_small, b_ragged):
        members = support_set(b)
        for limit in (1, 15, 16, 17, 100, b.length - 1, b.length):
            counts = tp.residue_class_counts(b, limit)
            for r in range(16):
                assert counts[r] == sum(1 for n in members
                                        if n < limit and n % 16 == r)
            assert counts.sum() == sum(1 for n in members if n < limit)


def test_residue_class_counts_errors(b_small):
    with pytest.raises(ValueError):
        tp.residue_class_counts(b_small, 0)
    with pytest.raises(InsufficientBitmapError):
        tp.residue_class_counts(tp.build_B(16), 17)


def test_non15_count(b_small, b_ragged):
    for b in (b_small, b_ragged):
        members = support_set(b)
        first15 = min(n for n in members if n % 16 == 15)
        for n_max in (0, 14, 15, 16, 255, first15 - 1, first15,
                      b.length - 2, b.length - 1):
            expect = sum(1 for n in members if n <= n_max and n % 16 != 15)
            assert tp.non15_count(b, n_max) == expect
        with pytest.raises(InsufficientBitmapError):
            tp.non15_count(b, b.length)
        with pytest.raises(ValueError):
            tp.non15_count(b, -1)

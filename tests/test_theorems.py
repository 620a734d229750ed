"""Statement registry: applicability, verdicts, suite reports.

The context fixture covers n <= 20000, so every verdict asserted here is
computed live from the bitmaps and the arithmetic oracles. A deliberately
corrupted bitmap checks that the machinery reports violations instead of
quietly passing.
"""

import dataclasses
import inspect
import itertools
import math
import random
import weakref

import numpy as np
import pytest

import thetaparity as tp
from thetaparity import quadarith as qa
from thetaparity import theorems as th
from thetaparity.f2series import BitSeries, InsufficientBitmapError
from thetaparity.theorems import StatementId, Status


def _first_applicable(sid):
    for n in range(200):
        if th.applicable(sid, n):
            return n
    raise AssertionError(f"nothing applicable for {sid}")


def test_registry_covers_every_statement():
    assert len(th.ALL_STATEMENTS) == len(StatementId) == 18
    for sid in StatementId:
        assert th.description(sid)
        assert _first_applicable(sid) < 200
        # a batch takes exactly the columns its entry reads, each once
        stmt = th._REGISTRY[sid]
        assert len(set(stmt.reads)) == len(stmt.reads)
        assert all(key[0] in th._COLUMNS for key in stmt.reads)
        # a class table is read on its own class, which quadarith alone
        # records: a key names (form, scale) or scale, and the table takes
        # the statement's grid
        grid = th._grid(sid, 0, 200)
        for key in stmt.reads:
            if key[0] in ("class_tuples", "primitive_r3"):
                assert len(key) == {"class_tuples": 3, "primitive_r3": 2}[key[0]], key
                th._COLUMNS[key[0]](grid, None, *key[1:])
        assert len(inspect.signature(stmt.batch).parameters) == len(stmt.reads)
        assert th.requires_seventh(sid) == (sid is StatementId.L3_5)


def test_applicability_examples():
    assert th.applicable(StatementId.T1_1, 0)
    assert th.applicable(StatementId.T1_1, 4)
    assert not th.applicable(StatementId.T1_1, 7)
    assert th.applicable(StatementId.T1_2, 17)
    assert not th.applicable(StatementId.T1_2, 3)
    assert th.applicable(StatementId.T1_4, 11)
    assert not th.applicable(StatementId.T1_4, 7)
    assert th.applicable(StatementId.T3_6, 7)
    assert th.applicable(StatementId.T3_6, 23)
    assert not th.applicable(StatementId.T3_6, 15)
    assert th.applicable(StatementId.L3_5, 1)
    assert th.applicable(StatementId.L3_5, 17)
    assert not th.applicable(StatementId.L3_5, 9)
    assert not th.applicable(StatementId.GAUSS_24H, 3)
    assert th.applicable(StatementId.GAUSS_24H, 11)
    assert th.applicable(StatementId.GAUSS_12H, 7)
    assert not th.applicable(StatementId.T1_2, -3)


def test_gauss_unit_exception_at_three():
    # the excluded point: 3 has 8 primitive signed triples, not 24 h(-3) = 24
    assert qa.count_signed_representations(3, (1, 1, 1), primitive=True) == 8
    assert 24 * qa.class_number(-3) == 24


def test_verify_examples(ctx20k):
    v = th.verify(StatementId.T1_2, 17, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness["count_1_4"] == 1

    v = th.verify(StatementId.T1_4, 11, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness["count_1_2_8"] == 2

    v = th.verify(StatementId.L2_1_IDENTITY, 11, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness == {"r1": 3, "r2": 1, "count_1_2_8": 2}

    v = th.verify(StatementId.L3_7_IDENTITY, 7, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness == {"r3": 6, "count_1_2_4": 1}

    v = th.verify(StatementId.T3_8, 7, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness["r3"] == 6

    v = th.verify(StatementId.GAUSS_24H, 11, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness == {"signed_primitive": 24, "class_number": 1}

    v = th.verify(StatementId.GAUSS_12H, 7, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness == {"signed_primitive": 48, "class_number": 4}

    v = th.verify(StatementId.L3_5, 1, ctx20k)
    assert v.status is Status.HOLDS

    v = th.verify(StatementId.T2_3, 195, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness["odd_exponent_primes"] == 3 and v.witness["member"] is False


def test_verify_ideal_count_statements(ctx20k):
    # squares of numbers = 3 or 5 mod 8 take the exceptional branch
    v = th.verify(StatementId.L3_1, 9, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness == {"u": 3, "v": 1, "exceptional": True}

    v = th.verify(StatementId.L3_1, 25, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness == {"u": 1, "v": 3, "exceptional": True}

    v = th.verify(StatementId.L3_1, 49, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness["exceptional"] is False

    v = th.verify(StatementId.L3_3, 1, ctx20k)
    assert v.status is Status.HOLDS
    assert v.witness == {"u": 1, "v": 1, "count_1_2": 1, "count_1_4": 1,
                         "square": True}


def test_verify_vacuous_paths(ctx20k):
    v = th.verify(StatementId.T2_3, 3, ctx20k)
    assert v.status is Status.VACUOUS
    assert v.witness == {"odd_exponent_primes": 1}

    v = th.verify(StatementId.L2_2, 11, ctx20k)
    assert v.status is Status.VACUOUS
    assert v.witness == {"distinct_primes": 1}

    v = th.verify(StatementId.L2_2, 195, ctx20k)  # 3 * 5 * 13
    assert v.status is Status.HOLDS
    assert v.witness["primitive_triples"] % 4 == 0

    v = th.verify(StatementId.L3_9, 231, ctx20k)  # 3 * 7 * 11, three primes
    assert v.status is Status.HOLDS
    assert v.witness["distinct_primes"] == 3
    assert v.witness["primitive_triples"] % 4 == 0

    v = th.verify(StatementId.L3_9, 7, ctx20k)
    assert v.status is Status.VACUOUS
    assert v.witness == {"distinct_primes": 1}


def test_verify_rejects_inapplicable_n(ctx20k):
    with pytest.raises(ValueError):
        th.verify(StatementId.T1_1, 7, ctx20k)
    with pytest.raises(ValueError):
        th.verify(StatementId.GAUSS_24H, 3, ctx20k)


def test_verify_needs_covering_bitmap():
    ctx = tp.SeriesContext(tp.build_B(16))
    with pytest.raises(IndexError):
        th.verify(StatementId.T1_1, 100, ctx)
    with pytest.raises(ValueError):
        th.verify(StatementId.L3_5, 17, ctx)  # no 1/g^7 bitmap given


def test_verdict_requires_witness_on_violation():
    with pytest.raises(ValueError):
        th.Verdict(Status.VIOLATED, {})


def _scalar_report(sid, lo, hi, ctx):
    # the report run_suite must give, from one scalar verify per n
    tally = {Status.HOLDS: 0, Status.VACUOUS: 0, Status.VIOLATED: 0}
    violations = []
    for n in range(lo, hi + 1):
        if th.applicable(sid, n):
            verdict = th.verify(sid, n, ctx)
            tally[verdict.status] += 1
            if verdict.status is Status.VIOLATED:
                violations.append((n, verdict.witness))
    cap = th.MAX_RECORDED_VIOLATIONS
    return th.TheoremReport(
        sid, lo, hi, tally[Status.HOLDS], tally[Status.VACUOUS],
        tally[Status.VIOLATED], hi - lo + 1 - sum(tally.values()),
        tuple(violations[:cap]), max(0, len(violations) - cap))


def _flip(series, rng, lo, hi, fraction):
    flips = rng.sample(range(lo, hi + 1), int(fraction * (hi - lo + 1)))
    return BitSeries(series.length, series.bits ^ sum(1 << n for n in flips))


def test_run_suite_matches_scalar_verify(ctx20k):
    # columns and batch verdicts against the scalar oracle, field by field,
    # on seeded random windows; corrupted bitmaps give violations and, in
    # the widest window, more than MAX_RECORDED_VIOLATIONS of them
    rng = random.Random(7)
    windows = [(0, 40), (19950, 20000)]
    windows += [(lo, lo + rng.randrange(60, 200))
                for lo in (rng.randrange(19000) for _ in range(3))]
    lo = rng.randrange(19000)
    wide = (lo, lo + 700)
    # one n of each class mod 16 alone, and windows from an odd lo
    windows += [(n, n) for n in (16 * rng.randrange(1250) + r for r in range(16))]
    windows += [(lo, lo + rng.randrange(60, 200)) for lo in (7, 2 * rng.randrange(9500) + 1)]
    windows.append(wide)
    for k, (lo, hi) in enumerate(windows):
        fraction = (0.0, 0.02, 0.2)[k % 3]
        ctx = tp.SeriesContext(_flip(ctx20k.inv_theta, rng, lo, hi, fraction),
                               _flip(ctx20k.inv_theta7, rng, lo, hi, fraction))
        reports = th.run_suite(th.ALL_STATEMENTS, lo, hi, ctx)
        for report in reports:
            assert report == _scalar_report(report.statement, lo, hi, ctx), \
                (report.statement, lo, hi)
    assert any(r.violations_dropped for r in reports)


def test_run_suite_needs_scalar_agreement(ctx20k, monkeypatch):
    # a batch verdict of VIOLATED that the scalar oracle does not confirm
    # is an error, not a counterexample
    stmt = th._REGISTRY[StatementId.T1_1]
    monkeypatch.setitem(th._REGISTRY, StatementId.T1_1, dataclasses.replace(
        stmt, batch=lambda n: (n != 40, False), reads=(("n",),)))
    monkeypatch.setitem(th._COLUMNS, "n", lambda grid, ctx: np.array(grid))
    with pytest.raises(AssertionError, match="n=40"):
        th.run_suite([StatementId.T1_1], 0, 100, ctx20k)


def test_run_suite_frees_each_column_after_its_last_reader(ctx20k, monkeypatch):
    builds, alive = {}, {}

    def counting(kind, build):
        def wrapped(grid, ctx, *args):
            key = (kind, *args)
            column = build(grid, ctx, *args)
            builds[key] = builds.get(key, 0) + 1
            alive[key] = weakref.ref(column)
            return column
        return wrapped

    for kind, build in list(th._COLUMNS.items()):
        monkeypatch.setitem(th._COLUMNS, kind, counting(kind, build))
    ids = th.ALL_STATEMENTS
    scan = th._scan

    def checked_scan(sid, *args):
        later = {key for i in ids[ids.index(sid):] for key in th._REGISTRY[i].reads}
        for key, ref in alive.items():
            assert key in later or ref() is None, (sid, key)
        return scan(sid, *args)

    monkeypatch.setattr(th, "_scan", checked_scan)
    th.run_suite(ids, 0, 2000, ctx20k)
    read = {key for sid in ids for key in th._REGISTRY[sid].reads}
    assert builds == dict.fromkeys(read, 1)
    assert all(ref() is None for ref in alive.values())


def test_run_suite_builds_each_column_on_its_readers_class(ctx20k, monkeypatch):
    # a column holds the coarsest class that holds every reader's grid
    lengths = {}

    def recording(kind, build):
        def wrapped(grid, ctx, *args):
            column = build(grid, ctx, *args)
            lengths[(kind, *args)] = len(getattr(column, "distinct_primes", column))
            return column
        return wrapped

    for kind, build in list(th._COLUMNS.items()):
        monkeypatch.setitem(th._COLUMNS, kind, recording(kind, build))
    th.run_suite(th.ALL_STATEMENTS, 0, 2000, ctx20k)
    # every n, even n, odd n, 1 mod 16 and each class mod 8, whose GAUSS_24H
    # class numbers start at n = 11
    assert lengths == {
        ("member",): 2001, ("roots", 2): 1001, ("roots", 1): 1000,
        ("class_tuples", (1, 4), 1): 1000, ("class_tuples", (1, 2), 1): 1000,
        ("factors",): 1000, ("seventh",): 125,
        ("class_tuples", (1, 1, 1), 1): 250, ("class_tuples", (1, 2, 8), 1): 250,
        ("class_tuples", (1, 2, 4), 1): 250, ("class_tuples", (1, 1, 1), 2): 250,
        ("primitive_r3", 1): 250, ("primitive_r3", 2): 250,
        ("class_numbers", 1): 249, ("class_numbers", 8): 250}
    # one n builds one entry of each column that a statement applying there reads
    rng = random.Random(5)
    for n in (16 * rng.randrange(1250) + r for r in range(16)):
        lengths.clear()
        th.run_suite(th.ALL_STATEMENTS, n, n, ctx20k)
        assert lengths == dict.fromkeys(
            {key for sid in th.ALL_STATEMENTS if th.applicable(sid, n)
             for key in th._REGISTRY[sid].reads}, 1), n


def test_run_suite_builds_factors_on_the_statement_grid(ctx20k, monkeypatch):
    # a statement on one class mod 8 or 16 run alone sieves only its own n
    grids = []
    factor_columns = qa.factor_columns

    def recorded(grid):
        grids.append(grid)
        return factor_columns(grid)

    monkeypatch.setattr(qa, "factor_columns", recorded)
    for sid in (StatementId.T2_3, StatementId.T3_11):
        n = _first_applicable(sid)
        for lo, hi in ((0, 20000), (1001, 5000), (n, n)):
            grids.clear()
            th.run_suite([sid], lo, hi, ctx20k)
            assert grids == [th._grid(sid, lo, hi)], (sid, lo, hi)


def test_roots_column_matches_isqrt():
    # k where n = divisor * k^2, else -1, on grids of steps 1, 2, 8 and 16
    # from lo = 0 and from an odd lo, including single n
    for step, divisor, lo in itertools.product((1, 2, 8, 16), (1, 2), (0, 977)):
        for residue in range(step):
            for hi in (lo, lo + 3000):
                grid = range(lo + (residue - lo) % step, hi + 1, step)
                if not grid:
                    continue
                got = th._COLUMNS["roots"](grid, None, divisor)
                assert got.dtype == np.int64
                want = []
                for n in grid:
                    k = math.isqrt(n // divisor)
                    want.append(k if divisor * k * k == n else -1)
                assert got.tolist() == want, (grid, divisor)


def test_run_suite_alone_matches_the_suite(ctx20k):
    # a statement run alone builds its columns on its own grid, which can be
    # finer than the suite's (the (1,2,4) table read by T3_6 alone is on 7
    # mod 16), and reports what the suite reports
    rng = random.Random(11)
    windows = [(n, n) for n in (16 * rng.randrange(1250) + r for r in range(16))]
    windows += [(lo, lo + rng.randrange(60, 600))
                for lo in (7, 2 * rng.randrange(9500) + 1, rng.randrange(19000))]
    for lo, hi in windows:
        ctx = tp.SeriesContext(_flip(ctx20k.inv_theta, rng, lo, hi, 0.02),
                               _flip(ctx20k.inv_theta7, rng, lo, hi, 0.02))
        for report in th.run_suite(th.ALL_STATEMENTS, lo, hi, ctx):
            assert th.run_suite([report.statement], lo, hi, ctx) == [report], \
                (report.statement, lo, hi)


def test_run_suite_builds_no_table_past_hi(ctx20k, monkeypatch):
    # the counts at 2n come from class tables at n, so no table, the
    # primitive r3 ones included, runs past hi, and every table, the
    # two-variable ones included, takes a grid that stops at the last n of
    # its class
    calls = []
    for name in ("tuple_class_table", "primitive_r3_class_table"):
        def recorded(*args, _table=getattr(qa, name)):
            calls.append((*args[:-1], args[-1][-1]))
            return _table(*args)
        monkeypatch.setattr(qa, name, recorded)
    th.run_suite(th.ALL_STATEMENTS, 0, 2000, ctx20k)
    last_n = {((1, 2), 1): 1999, ((1, 4), 1): 1999,
              ((1, 1, 1), 1): 1995, ((1, 2, 8), 1): 1995,
              ((1, 2, 4), 1): 1999, ((1, 1, 1), 2): 1999,
              (1,): 1995, (2,): 1999}
    assert set(calls) == {(*key, n) for key, n in last_n.items()}, calls


def test_run_suite_transforms_at_most_twice_hi(ctx20k, fft_calls):
    # every table takes its one transform at 2 hi, or none
    th.run_suite(th.ALL_STATEMENTS, 0, 2000, ctx20k)
    assert fft_calls and max(n for _, n in fft_calls) <= qa._fft_size(4001), fft_calls


def test_class_columns_match_per_query():
    # each count column on grids of its class at steps of one, two and four
    # times its modulus (the odd n at steps 2, 4 and 8, as L3_3, T1_2 and
    # L2_1 read them), also one n alone (hi = 1, 3, 7, 11, 15) and from an
    # odd or even lo
    windows = [(0, hi) for hi in (1, 3, 7, 11, 15)]
    windows += [(1, 15), (3, 3), (4, 30), (7, 7), (13, 90), (1000, 1100)]
    for lo, hi in windows:
        for form, scale, modulus, residue in (
                ((1, 2), 1, 2, 1), ((1, 4), 1, 2, 1), ((1, 1, 1), 1, 8, 3),
                ((1, 2, 8), 1, 8, 3), ((1, 2, 4), 1, 8, 7), ((1, 1, 1), 2, 8, 7)):
            first = lo + (residue - lo) % modulus
            grids = [range(first + k * modulus, hi + 1, step * modulus)
                     for step in (1, 2, 4) for k in range(step)]
            for grid in filter(None, grids):
                got = th._COLUMNS["class_tuples"](grid, None, form, scale)
                assert got.tolist() == [qa.count_square_tuples(scale * n, form)
                                        for n in grid], (form, scale, grid)
                if form == (1, 1, 1):  # the classes of the primitive r3 columns
                    got = th._COLUMNS["primitive_r3"](grid, None, scale)
                    assert got.tolist() == [
                        qa.count_signed_representations(scale * n, (1, 1, 1), primitive=True)
                        for n in grid], (scale, grid)


def test_batch_primitive_triples_keep_the_sign_check(ctx20k, monkeypatch):
    # both paths insist that primitive triples have no zero coordinate
    table = qa.primitive_r3_class_table
    monkeypatch.setattr(qa, "primitive_r3_class_table",
                        lambda scale, grid: table(scale, grid) + 4)
    with pytest.raises(AssertionError, match="zero coordinate"):
        th.run_suite([StatementId.L2_2], 0, 400, ctx20k)
    # the column checks every n of its class, also where the statement
    # reading it is vacuous: N = 11 (m = 1) has one prime factor, and
    # GAUSS_24H decides n = 11 from the same column
    def off_at_11(scale, grid):
        counts = table(scale, grid)
        counts[grid.index(11)] += 4
        return counts

    monkeypatch.setattr(qa, "primitive_r3_class_table", off_at_11)
    for sid in (StatementId.L2_2, StatementId.GAUSS_24H):
        with pytest.raises(AssertionError, match="zero coordinate"):
            th.run_suite([sid], 0, 400, ctx20k)
    monkeypatch.setattr(qa, "count_signed_representations",
                        lambda *args, **kwargs: 12)
    with pytest.raises(AssertionError, match="zero coordinate"):
        th.verify(StatementId.L2_2, 195, ctx20k)


def test_window_bits_match_coefficients(ctx20k):
    b = ctx20k.inv_theta
    for lo, hi in ((0, 0), (0, 7), (1, 8), (7, 9), (13, 130), (19990, 20000)):
        for step in (1, 2, 8, 16):
            grid = range(lo, hi + 1, step)
            got = th._window_bits(b, grid)
            assert got.tolist() == [bool(b.coefficient(n)) for n in grid], grid


def test_run_suite_class_number_ceiling(ctx20k):
    top = th.CLASS_NUMBER_HI_MAX
    for sid in (StatementId.GAUSS_24H, StatementId.GAUSS_12H):
        with pytest.raises(ValueError, match=str(top)):
            th.run_suite([StatementId.T1_2, sid], top - 10, top + 1, ctx20k)
    with pytest.raises(ValueError):
        th.check_range([StatementId.T1_1], 5, 4)
    th.check_range(th.ALL_STATEMENTS, 0, top)
    th.check_range([StatementId.T1_1], 0, top + 1)
    # the ceiling is keyed on the class-number column: the statements that
    # read the primitive r3 column or the (1,1,1) table at 2n without class
    # numbers take any hi
    th.check_range([StatementId.L3_9, StatementId.L3_7_IDENTITY, StatementId.T3_8,
                    StatementId.C3_10], 0, top + 1)


def test_run_suite_t1_1_range(ctx20k):
    reports = th.run_suite([StatementId.T1_1], 0, 100, ctx20k)
    assert len(reports) == 1
    r = reports[0]
    assert (r.holds, r.vacuous, r.violated, r.inapplicable) == (51, 0, 0, 50)
    assert r.first_violation is None
    assert r.violations == ()


def test_run_suite_tallies_sum(ctx20k):
    reports = th.run_suite(list(StatementId), 0, 2000, ctx20k)
    for r in reports:
        assert r.holds + r.vacuous + r.violated + r.inapplicable == 2001
        assert r.violated == 0, r.statement


def test_run_suite_caps_recorded_violations(ctx20k):
    # every flipped even coefficient breaks T1_1 there; only the first
    # MAX_RECORDED_VIOLATIONS witnesses are kept, the rest are counted
    cap = th.MAX_RECORDED_VIOLATIONS
    flipped = random.Random(4).sample(range(2, 4001, 2), cap + 18)
    good = ctx20k.inv_theta
    bad = BitSeries(good.length, good.bits ^ sum(1 << n for n in flipped))
    r = th.run_suite([StatementId.T1_1], 0, 4000, tp.SeriesContext(bad))[0]
    assert r.violated == len(flipped)
    assert len(r.violations) == cap
    assert r.violations_dropped == r.violated - cap
    ns = [n for n, _ in r.violations]
    assert all(a < b for a, b in zip(ns, ns[1:]))
    assert ns == sorted(flipped)[:cap]
    assert r.first_violation == min(flipped)


def test_run_suite_coverage_errors(ctx20k):
    short = tp.SeriesContext(tp.build_B(64))
    with pytest.raises(InsufficientBitmapError) as exc:
        th.run_suite([StatementId.T1_1], 0, 100, short)
    assert exc.value.needed == 101
    with pytest.raises(ValueError):
        th.run_suite([StatementId.L3_5], 0, 33, short)
    short7 = tp.SeriesContext(ctx20k.inv_theta, tp.inverse_seventh_power(64))
    with pytest.raises(InsufficientBitmapError) as exc:
        th.run_suite([StatementId.L3_5], 0, 100, short7)
    assert exc.value.needed == 101
    # counting-only statements never touch the bitmap, so a short one is fine
    reports = th.run_suite([StatementId.GAUSS_24H], 0, 500, short)
    assert reports[0].violated == 0


def test_report_tallies_must_sum_to_the_range():
    with pytest.raises(ValueError, match="sum to the range"):
        th.TheoremReport(StatementId.T1_1, 0, 10, 5, 0, 0, 5, (), 0)
    assert th.TheoremReport(StatementId.T1_1, 0, 10, 5, 0, 0, 6, (), 0).holds == 5


def test_run_suite_reports_violations_with_witness(ctx20k):
    # flip one even coefficient: 6 is not in B and 3 is not a square
    good = ctx20k.inv_theta
    bad = BitSeries(good.length, good.bits ^ (1 << 6))
    ctx = tp.SeriesContext(bad)
    reports = th.run_suite([StatementId.T1_1], 0, 100, ctx)
    r = reports[0]
    assert r.violated == 1 and r.holds == 50
    assert r.first_violation == 6
    n, witness = r.violations[0]
    assert n == 6
    assert witness == {"member": True, "half": 3, "half_square": False}


def test_reports_to_csv(ctx20k):
    reports = th.run_suite([StatementId.T3_6], 0, 10, ctx20k)
    text = th.reports_to_csv(reports)
    assert text == (
        "statement_id,n_lo,n_hi,holds,vacuous,violated,first_violation_n\n"
        "T3_6,0,10,1,0,0,\n"
    )


def test_reports_to_csv_records_first_violation(ctx20k):
    good = ctx20k.inv_theta
    bad = BitSeries(good.length, good.bits ^ (1 << 6))
    reports = th.run_suite([StatementId.T1_1], 0, 100, tp.SeriesContext(bad))
    lines = th.reports_to_csv(reports).splitlines()
    assert lines[1] == "T1_1,0,100,50,0,1,6"

"""Registry of checkable statements about B, the support of 1/g over GF(2).

Here g is the squares theta series and B the set of exponents with odd
coefficient in its reciprocal. Each statement pairs an applicability
predicate (a congruence condition on n) with a verifier that computes both
sides from independent routes: series membership is read from the 1/g bitmap
(or the 1/g^7 bitmap), while the arithmetic side comes from quadratic-form
counts, ideal counts, and class numbers in `quadarith`.

One-directional statements report VACUOUS when their number-theoretic
hypothesis does not bite, so the suite tallies also show how often each
criterion actually decides membership. A VIOLATED verdict always carries a
witness with every intermediate count.

Statement ids follow a fixed external naming scheme (T1_1, L2_2, ...);
the registry's description strings say what each one asserts.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import quadarith
from .f2series import BitSeries, InsufficientBitmapError
from .quadarith import IdealCountKind

__all__ = [
    "StatementId",
    "Status",
    "Verdict",
    "TheoremReport",
    "SeriesContext",
    "applicable",
    "verify",
    "run_suite",
    "reports_to_csv",
    "description",
    "requires_seventh",
    "ALL_STATEMENTS",
    "MAX_RECORDED_VIOLATIONS",
]

MAX_RECORDED_VIOLATIONS = 32


class StatementId(enum.Enum):
    T1_1 = "T1_1"
    T1_2 = "T1_2"
    T1_4 = "T1_4"
    L2_1_IDENTITY = "L2_1_IDENTITY"
    L2_1_SUFFICIENCY = "L2_1_SUFFICIENCY"
    L2_2 = "L2_2"
    T2_3 = "T2_3"
    L3_1 = "L3_1"
    L3_3 = "L3_3"
    L3_5 = "L3_5"
    T3_6 = "T3_6"
    L3_7_IDENTITY = "L3_7_IDENTITY"
    T3_8 = "T3_8"
    L3_9 = "L3_9"
    C3_10 = "C3_10"
    T3_11 = "T3_11"
    GAUSS_24H = "GAUSS_24H"
    GAUSS_12H = "GAUSS_12H"


class Status(enum.Enum):
    HOLDS = "HOLDS"
    VACUOUS = "VACUOUS"
    VIOLATED = "VIOLATED"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one statement at one n, with the computed quantities."""

    status: Status
    witness: dict

    def __post_init__(self):
        if self.status is Status.VIOLATED and not self.witness:
            raise ValueError("violated verdicts must carry a witness")


class SeriesContext:
    """The series bitmaps plus a transparent cache of count tables.

    `inv_theta` is the 1/g bitmap; `inv_theta7` (optional) is the 1/g^7
    bitmap needed only by L3_5. Count-table lookups fall back to the
    per-query enumeration and agree with it exactly. run_suite calls
    warm_tuple_counts before it scans; the scan itself only reads.
    """

    def __init__(self, inv_theta: BitSeries, inv_theta7: Optional[BitSeries] = None):
        self.inv_theta = inv_theta
        self.inv_theta7 = inv_theta7
        self._tables: dict[tuple[int, ...], np.ndarray] = {}

    def member(self, n: int) -> bool:
        return bool(self.inv_theta.coefficient(n))

    def seventh_coefficient(self, n: int) -> int:
        if self.inv_theta7 is None:
            raise ValueError("context holds no 1/g^7 bitmap")
        return self.inv_theta7.coefficient(n)

    def tuple_count(self, n: int, form: tuple[int, ...]) -> int:
        table = self._tables.get(form)
        if table is not None and n < table.shape[0]:
            return int(table[n])
        return quadarith.count_square_tuples(n, form)

    def warm_tuple_counts(self, form: tuple[int, ...], n_max: int) -> None:
        have = self._tables.get(form)
        if have is None or have.shape[0] <= n_max:
            self._tables[form] = quadarith.square_tuple_count_table(form, n_max)


def _verdict(ok: bool, **witness) -> Verdict:
    return Verdict(Status.HOLDS if ok else Status.VIOLATED, witness)


def _vacuous(**witness) -> Verdict:
    return Verdict(Status.VACUOUS, witness)


def _check_t1_1(n: int, ctx: SeriesContext) -> Verdict:
    member = ctx.member(n)
    half_square = quadarith.is_square(n // 2)
    return _verdict(member == half_square, member=member, half=n // 2,
                    half_square=half_square)


def _check_parity(form: tuple[int, ...], n: int, ctx: SeriesContext) -> Verdict:
    # membership matches the parity of the square-tuple count of the form
    member = ctx.member(n)
    c = ctx.tuple_count(n, form)
    return _verdict(member == (c % 2 == 1), member=member,
                    **{"count_" + "_".join(map(str, form)): c})


def _check_l2_1_identity(n: int, ctx: SeriesContext) -> Verdict:
    r1 = ctx.tuple_count(n, (1, 1, 1))
    r2 = ctx.tuple_count(n, (1, 2))
    t = ctx.tuple_count(n, (1, 2, 8))
    return _verdict(r1 + r2 == 2 * t, r1=r1, r2=r2, count_1_2_8=t)


def _check_l2_1_sufficiency(n: int, ctx: SeriesContext) -> Verdict:
    r1 = ctx.tuple_count(n, (1, 1, 1))
    r2 = ctx.tuple_count(n, (1, 2))
    if r1 % 4 or r2 % 4:
        return _vacuous(r1=r1, r2=r2)
    member = ctx.member(n)
    return _verdict(not member, r1=r1, r2=r2, member=member)


def _check_primitive_triples(scale: int, n: int, ctx: SeriesContext) -> Verdict:
    m = len(quadarith.factorize(n).pairs)
    if m < 3:
        return _vacuous(distinct_primes=m)
    # primitive unsigned ordered triples of squares summing to scale * n; in
    # the residue classes used here (n = 3 mod 8 at scale 1, n odd at scale
    # 2) every coordinate is nonzero, so each triple carries 8 sign patterns
    signed = quadarith.count_signed_representations(scale * n, (1, 1, 1),
                                                    primitive=True)
    if signed % 8:
        raise AssertionError(
            f"unexpected zero coordinate in primitive triple, n={scale * n}")
    triples = signed // 8
    return _verdict(triples % 4 == 0, distinct_primes=m,
                    primitive_triples=triples, signed_primitive=signed)


def _check_three_odd_primes(n: int, ctx: SeriesContext) -> Verdict:
    odd = quadarith.odd_exponent_prime_count(quadarith.factorize(n))
    if odd < 3:
        return _vacuous(odd_exponent_primes=odd)
    member = ctx.member(n)
    return _verdict(not member, odd_exponent_primes=odd, member=member)


def _check_l3_1(n: int, ctx: SeriesContext) -> Verdict:
    u = quadarith.ideal_count(n, IdealCountKind.MINUS_TWO)
    v = quadarith.ideal_count(n, IdealCountKind.GAUSSIAN)
    root = math.isqrt(n)
    exceptional = root * root == n and root % 8 in (3, 5)
    if exceptional:
        ok = u * v % 4 == 3
    else:
        ok = (u - v) % 4 == 0
    return _verdict(ok, u=u, v=v, exceptional=exceptional)


def _check_l3_3(n: int, ctx: SeriesContext) -> Verdict:
    u = quadarith.ideal_count(n, IdealCountKind.MINUS_TWO)
    v = quadarith.ideal_count(n, IdealCountKind.GAUSSIAN)
    u1 = ctx.tuple_count(n, (1, 2))
    v1 = ctx.tuple_count(n, (1, 4))
    sq = 1 if quadarith.is_square(n) else 0
    ok = u == 2 * u1 - sq and v == 2 * v1 - sq
    return _verdict(ok, u=u, v=v, count_1_2=u1, count_1_4=v1, square=bool(sq))


def _check_l3_5(n: int, ctx: SeriesContext) -> Verdict:
    coeff = ctx.seventh_coefficient(n)
    square = quadarith.is_square(n)
    return _verdict((coeff == 1) == square, coefficient=coeff, square=square)


def _check_l3_7_identity(n: int, ctx: SeriesContext) -> Verdict:
    r3 = ctx.tuple_count(2 * n, (1, 1, 1))
    t = ctx.tuple_count(n, (1, 2, 4))
    return _verdict(r3 == 6 * t, r3=r3, count_1_2_4=t)


def _check_t3_8(n: int, ctx: SeriesContext) -> Verdict:
    member = ctx.member(n)
    r3 = ctx.tuple_count(2 * n, (1, 1, 1))
    return _verdict(member == (r3 % 4 == 2), member=member, r3=r3)


def _check_c3_10(n: int, ctx: SeriesContext) -> Verdict:
    odd = quadarith.odd_exponent_prime_count(quadarith.factorize(n))
    if odd < 3:
        return _vacuous(odd_exponent_primes=odd)
    r3 = ctx.tuple_count(2 * n, (1, 1, 1))
    return _verdict(r3 % 4 == 0, odd_exponent_primes=odd, r3=r3)


def _check_gauss_24h(n: int, ctx: SeriesContext) -> Verdict:
    signed = quadarith.count_signed_representations(n, (1, 1, 1), primitive=True)
    h = quadarith.class_number(-n)
    return _verdict(signed == 24 * h, signed_primitive=signed, class_number=h)


def _check_gauss_12h(n: int, ctx: SeriesContext) -> Verdict:
    signed = quadarith.count_signed_representations(2 * n, (1, 1, 1), primitive=True)
    h = quadarith.class_number(-8 * n)
    return _verdict(signed == 12 * h, signed_primitive=signed, class_number=h)


@dataclass(frozen=True)
class _Statement:
    predicate: Callable[[int], bool]
    verifier: Callable[[int, SeriesContext], Verdict]
    description: str
    needs_membership: bool = False
    needs_seventh: bool = False
    # (form, multiplier): counting n up to hi needs the table to multiplier*hi
    warm_forms: tuple[tuple[tuple[int, ...], int], ...] = ()


_REGISTRY: dict[StatementId, _Statement] = {
    StatementId.T1_1: _Statement(
        lambda n: n % 2 == 0,
        _check_t1_1,
        "even n is in B iff n/2 is a perfect square",
        needs_membership=True,
    ),
    StatementId.T1_2: _Statement(
        lambda n: n % 4 == 1,
        functools.partial(_check_parity, (1, 4)),
        "n = 1 mod 4: membership matches the parity of the (1,4) square-tuple count",
        needs_membership=True,
        warm_forms=(((1, 4), 1),),
    ),
    StatementId.T1_4: _Statement(
        lambda n: n % 8 == 3,
        functools.partial(_check_parity, (1, 2, 8)),
        "n = 3 mod 8: membership matches the parity of the (1,2,8) square-tuple count",
        needs_membership=True,
        warm_forms=(((1, 2, 8), 1),),
    ),
    StatementId.L2_1_IDENTITY: _Statement(
        lambda n: n % 8 == 3,
        _check_l2_1_identity,
        "n = 3 mod 8: (1,1,1) count plus (1,2) count equals twice the (1,2,8) count",
        warm_forms=(((1, 1, 1), 1), ((1, 2), 1), ((1, 2, 8), 1)),
    ),
    StatementId.L2_1_SUFFICIENCY: _Statement(
        lambda n: n % 8 == 3,
        _check_l2_1_sufficiency,
        "n = 3 mod 8: if both counts are divisible by 4, n is not in B",
        needs_membership=True,
        warm_forms=(((1, 1, 1), 1), ((1, 2), 1)),
    ),
    StatementId.L2_2: _Statement(
        lambda n: n % 8 == 3,
        functools.partial(_check_primitive_triples, 1),
        "n = 3 mod 8 with >= 3 distinct primes: primitive triple count is divisible by 4",
    ),
    StatementId.T2_3: _Statement(
        lambda n: n % 8 == 3,
        _check_three_odd_primes,
        "n = 3 mod 8 with >= 3 odd-exponent primes is not in B",
        needs_membership=True,
    ),
    StatementId.L3_1: _Statement(
        lambda n: n % 8 == 1,
        _check_l3_1,
        "n = 1 mod 8: the two ideal counts agree mod 4, except n = (8k+/-3)^2 "
        "where their product is 3 mod 4",
    ),
    StatementId.L3_3: _Statement(
        lambda n: n % 2 == 1,
        _check_l3_3,
        "odd n: ideal counts equal twice the (1,2) and (1,4) square-tuple counts, "
        "each less one when n is a square (V-side count read as the (1,4) form; "
        "as interpreted)",
        warm_forms=(((1, 2), 1), ((1, 4), 1)),
    ),
    StatementId.L3_5: _Statement(
        lambda n: n % 16 == 1,
        _check_l3_5,
        "n = 1 mod 16: the 1/g^7 coefficient is 1 iff n is a perfect square",
        needs_seventh=True,
    ),
    StatementId.T3_6: _Statement(
        lambda n: n % 16 == 7,
        functools.partial(_check_parity, (1, 2, 4)),
        "n = 7 mod 16: membership matches the parity of the (1,2,4) square-tuple count",
        needs_membership=True,
        warm_forms=(((1, 2, 4), 1),),
    ),
    StatementId.L3_7_IDENTITY: _Statement(
        lambda n: n % 8 == 7,
        _check_l3_7_identity,
        "n = 7 mod 8: the (1,1,1) count at 2n equals six times the (1,2,4) count at n",
        warm_forms=(((1, 1, 1), 2), ((1, 2, 4), 1)),
    ),
    StatementId.T3_8: _Statement(
        lambda n: n % 16 == 7,
        _check_t3_8,
        "n = 7 mod 16: membership matches the (1,1,1) count at 2n being 2 mod 4",
        needs_membership=True,
        warm_forms=(((1, 1, 1), 2),),
    ),
    StatementId.L3_9: _Statement(
        lambda n: n % 8 == 7,
        functools.partial(_check_primitive_triples, 2),
        "n = 7 mod 8 with >= 3 distinct primes: primitive triple count at 2n is "
        "divisible by 4",
    ),
    StatementId.C3_10: _Statement(
        lambda n: n % 8 == 7,
        _check_c3_10,
        "n = 7 mod 8 with >= 3 odd-exponent primes: (1,1,1) count at 2n is divisible by 4",
        warm_forms=(((1, 1, 1), 2),),
    ),
    StatementId.T3_11: _Statement(
        lambda n: n % 16 == 7,
        _check_three_odd_primes,
        "n = 7 mod 16 with >= 3 odd-exponent primes is not in B",
        needs_membership=True,
    ),
    StatementId.GAUSS_24H: _Statement(
        lambda n: n % 8 == 3 and n != 3,
        _check_gauss_24h,
        "n = 3 mod 8, n > 3: primitive signed triple count equals 24 h(-n)",
    ),
    StatementId.GAUSS_12H: _Statement(
        lambda n: n % 8 == 7,
        _check_gauss_12h,
        "n = 7 mod 8: primitive signed triple count at 2n equals 12 h(-8n)",
    ),
}

ALL_STATEMENTS: tuple[StatementId, ...] = tuple(StatementId)


def description(sid: StatementId) -> str:
    """Human-readable statement of what the id asserts."""
    return _REGISTRY[sid].description


def requires_seventh(sid: StatementId) -> bool:
    """True when verifying sid needs the 1/g^7 bitmap."""
    return _REGISTRY[sid].needs_seventh


def applicable(sid: StatementId, n: int) -> bool:
    """True when the statement's congruence/side condition covers n."""
    return n >= 0 and _REGISTRY[sid].predicate(n)


def verify(sid: StatementId, n: int, ctx: SeriesContext) -> Verdict:
    """Check one statement at one n; raises if it does not apply there."""
    if not applicable(sid, n):
        raise ValueError(f"{sid.name} does not apply to n={n}")
    return _REGISTRY[sid].verifier(n, ctx)


@dataclass(frozen=True)
class TheoremReport:
    """Tally of one statement over a contiguous range of n."""

    statement: StatementId
    lo: int
    hi: int
    holds: int
    vacuous: int
    violated: int
    inapplicable: int
    violations: tuple[tuple[int, dict], ...]
    violations_dropped: int

    def __post_init__(self):
        total = self.holds + self.vacuous + self.violated + self.inapplicable
        if total != self.hi - self.lo + 1:
            raise ValueError("tallies must sum to the range size")

    @property
    def first_violation(self) -> Optional[int]:
        return self.violations[0][0] if self.violations else None


def _scan(sid: StatementId, lo: int, hi: int, ctx: SeriesContext):
    stmt = _REGISTRY[sid]
    holds = vacuous = violated = inapplicable = 0
    kept: list[tuple[int, dict]] = []
    dropped = 0
    pred = stmt.predicate
    check = stmt.verifier
    for n in range(lo, hi + 1):
        if not pred(n):
            inapplicable += 1
            continue
        verdict = check(n, ctx)
        if verdict.status is Status.HOLDS:
            holds += 1
        elif verdict.status is Status.VACUOUS:
            vacuous += 1
        else:
            violated += 1
            if len(kept) < MAX_RECORDED_VIOLATIONS:
                kept.append((n, verdict.witness))
            else:
                dropped += 1
    return holds, vacuous, violated, inapplicable, kept, dropped


def run_suite(ids: Iterable[StatementId], lo: int, hi: int,
              ctx: SeriesContext) -> list[TheoremReport]:
    """One report per statement over every applicable n in [lo, hi].

    Each statement is scanned once, in increasing n, so its report keeps the
    first MAX_RECORDED_VIOLATIONS witnesses and counts the rest as dropped.
    """
    if lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi")
    ids = list(ids)
    if any(_REGISTRY[i].needs_membership for i in ids):
        if ctx.inv_theta.length <= hi:
            raise InsufficientBitmapError(hi + 1, ctx.inv_theta.length, "1/g bitmap")
    if any(_REGISTRY[i].needs_seventh for i in ids):
        if ctx.inv_theta7 is None:
            raise ValueError("requested statements need a 1/g^7 bitmap")
        if ctx.inv_theta7.length <= hi:
            raise InsufficientBitmapError(hi + 1, ctx.inv_theta7.length, "1/g^7 bitmap")
    for i in ids:
        for form, mult in _REGISTRY[i].warm_forms:
            ctx.warm_tuple_counts(form, mult * hi)

    reports = []
    for sid in ids:
        holds, vacuous, violated, inapplicable, kept, dropped = _scan(sid, lo, hi, ctx)
        reports.append(TheoremReport(sid, lo, hi, holds, vacuous, violated,
                                     inapplicable, tuple(kept), dropped))
    return reports


def reports_to_csv(reports: Iterable[TheoremReport]) -> str:
    """Render suite reports as CSV, one row per statement."""
    lines = ["statement_id,n_lo,n_hi,holds,vacuous,violated,first_violation_n"]
    for r in reports:
        first = "" if r.first_violation is None else str(r.first_violation)
        lines.append(f"{r.statement.name},{r.lo},{r.hi},"
                     f"{r.holds},{r.vacuous},{r.violated},{first}")
    return "\n".join(lines) + "\n"

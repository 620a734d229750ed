"""Registry of checkable statements about B, the support of 1/g over GF(2).

Here g is the squares theta series and B the set of exponents with odd
coefficient in its reciprocal. Each statement pairs an applicability
condition (a congruence on n) with a verifier that computes both sides from
independent routes: series membership is read from the 1/g bitmap (or the
1/g^7 bitmap), while the arithmetic side comes from quadratic-form counts,
ideal counts, and class numbers in `quadarith`.

Every statement has two verifiers. The scalar checker behind `verify` takes
one n and calls the per-query oracles; it is the reference. The batch
function behind `run_suite` decides a whole range at once from the columns
its registry entry reads, built by the batch oracles (class count tables, a
prime sieve, one reduced-form enumeration per class of discriminants); each
column is built at its first reader and dropped after its last. The scalar
checker rebuilds the witness of each recorded violation.

One-directional statements report VACUOUS when their number-theoretic
hypothesis does not bite, so the suite tallies also show how often each
criterion actually decides membership. A VIOLATED verdict always carries a
witness with every intermediate count.

Statement ids follow a fixed external naming scheme (T1_1, L2_2, ...);
the registry's description strings say what each one asserts.
"""

from __future__ import annotations

import collections
import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import quadarith
from .bitseries import BitSeries, InsufficientBitmapError
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
    "check_range",
    "reports_to_csv",
    "description",
    "requires_seventh",
    "ALL_STATEMENTS",
    "MAX_RECORDED_VIOLATIONS",
    "CLASS_NUMBER_HI_MAX",
]

MAX_RECORDED_VIOLATIONS = 32
# largest hi that run_suite takes for the class-number statements
CLASS_NUMBER_HI_MAX = 2 * 10**6


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
    """The series bitmaps that membership statements read.

    `inv_theta` is the 1/g bitmap; `inv_theta7` (optional) is the 1/g^7
    bitmap needed only by L3_5. The scalar checkers read one coefficient at
    a time; run_suite reads the window it scans as one column.
    """

    def __init__(self, inv_theta: BitSeries, inv_theta7: Optional[BitSeries] = None):
        self.inv_theta = inv_theta
        self.inv_theta7 = inv_theta7

    def member(self, n: int) -> bool:
        return bool(self.inv_theta.coefficient(n))

    def seventh_coefficient(self, n: int) -> int:
        if self.inv_theta7 is None:
            raise ValueError("context holds no 1/g^7 bitmap")
        return self.inv_theta7.coefficient(n)


def _window_bits(series: BitSeries, grid: range) -> np.ndarray:
    # the coefficients on the grid, unpacking only the bytes that it spans
    view = series.words.view(np.uint8)[grid.start >> 3:(grid[-1] >> 3) + 1]
    bits = np.unpackbits(view, bitorder="little")[grid.start & 7 :: grid.step]
    return bits[: len(grid)].astype(bool)


_ZERO_COORDINATE = "unexpected zero coordinate in primitive triple, n={}"


def _primitive_r3(grid: range, ctx: SeriesContext, scale: int) -> np.ndarray:
    """count_signed_representations(scale * n, (1, 1, 1), primitive=True)
    on a grid of the primitive table's class, checked: there no sum of three
    squares has a zero term, so each count is 8 sign patterns per triple."""
    signed = quadarith.primitive_r3_class_table(scale, grid)
    odd = np.flatnonzero(signed % 8)
    if odd.size:
        raise AssertionError(_ZERO_COORDINATE.format(scale * grid[int(odd[0])]))
    return signed


def _roots(grid: range, ctx: SeriesContext, divisor: int) -> np.ndarray:
    # k at each n = divisor * k^2 of the grid, -1 at every other n
    roots = np.full(len(grid), -1, dtype=np.int64)
    k = np.arange(math.isqrt(grid[-1] // divisor) + 1, dtype=np.int64)
    n = divisor * k * k
    on = (n >= grid.start) & ((n - grid.start) % grid.step == 0)
    roots[(n[on] - grid.start) // grid.step] = k[on]
    return roots


# The quantities of the statements on a grid, a range of n in [lo, hi] that
# holds the grid of every statement reading it; entry i is at n = grid[i].
# A column key is (kind, *args), and builder(grid, ctx, *args) computes it;
# run_suite builds each key at its first reader and drops it after its last.
_COLUMNS: dict[str, Callable] = {
    "member": lambda grid, ctx: _window_bits(ctx.inv_theta, grid),
    "seventh": lambda grid, ctx: _window_bits(ctx.inv_theta7, grid),
    "roots": _roots,
    # count_square_tuples(scale * n, form) on the class of its table
    "class_tuples": lambda grid, ctx, *key: quadarith.tuple_class_table(*key, grid),
    "primitive_r3": _primitive_r3,
    # on odd n
    "factors": lambda grid, ctx: quadarith.factor_columns(grid),
    # class_number(-scale * n)
    "class_numbers": lambda grid, ctx, scale: quadarith.class_numbers(scale, grid),
}


def _verdict(ok: bool, **witness) -> Verdict:
    return Verdict(Status.HOLDS if ok else Status.VIOLATED, witness)


def _vacuous(**witness) -> Verdict:
    return Verdict(Status.VACUOUS, witness)


# Each statement has a scalar checker, the oracle, and a batch function that
# takes the columns its registry entry reads, in that order, each on the
# statement's grid, and returns (ok, vacuous) boolean arrays over that grid.
# Columns check their own invariants: FFT rounding, primitive r3 signs.

def _check_t1_1(n: int, ctx: SeriesContext) -> Verdict:
    member = ctx.member(n)
    half_square = quadarith.is_square(n // 2)
    return _verdict(member == half_square, member=member, half=n // 2,
                    half_square=half_square)


def _batch_square_flag(bits, roots):
    # a bitmap bit equals the perfect-square flag of a roots column
    return bits == (roots >= 0), False


def _check_parity(form: tuple[int, ...], n: int, ctx: SeriesContext) -> Verdict:
    # membership matches the parity of the square-tuple count of the form
    member = ctx.member(n)
    count = quadarith.count_square_tuples(n, form)
    return _verdict(member == (count % 2 == 1), member=member,
                    **{"count_" + "_".join(map(str, form)): count})


def _batch_residue(modulus: int, residue: int, member, count):
    # membership matches a count being residue mod modulus
    return member == (count % modulus == residue), False


def _check_l2_1_identity(n: int, ctx: SeriesContext) -> Verdict:
    r1 = quadarith.count_square_tuples(n, (1, 1, 1))
    r2 = quadarith.count_square_tuples(n, (1, 2))
    t = quadarith.count_square_tuples(n, (1, 2, 8))
    return _verdict(r1 + r2 == 2 * t, r1=r1, r2=r2, count_1_2_8=t)


def _batch_l2_1_identity(r1, r2, t):
    return r1 + r2 == 2 * t, False


def _check_l2_1_sufficiency(n: int, ctx: SeriesContext) -> Verdict:
    r1 = quadarith.count_square_tuples(n, (1, 1, 1))
    r2 = quadarith.count_square_tuples(n, (1, 2))
    if r1 % 4 or r2 % 4:
        return _vacuous(r1=r1, r2=r2)
    member = ctx.member(n)
    return _verdict(not member, r1=r1, r2=r2, member=member)


def _batch_l2_1_sufficiency(r1, r2, member):
    return ~member, (r1 % 4 != 0) | (r2 % 4 != 0)


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
        raise AssertionError(_ZERO_COORDINATE.format(scale * n))
    triples = signed // 8
    return _verdict(triples % 4 == 0, distinct_primes=m,
                    primitive_triples=triples, signed_primitive=signed)


def _batch_primitive_triples(signed, factors):
    return signed // 8 % 4 == 0, factors.distinct_primes < 3


def _check_three_odd_primes(n: int, ctx: SeriesContext) -> Verdict:
    odd = quadarith.odd_exponent_prime_count(quadarith.factorize(n))
    if odd < 3:
        return _vacuous(odd_exponent_primes=odd)
    member = ctx.member(n)
    return _verdict(not member, odd_exponent_primes=odd, member=member)


def _batch_three_odd_primes(member, factors):
    return ~member, factors.odd_exponent_primes < 3


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


def _batch_l3_1(factors, roots):
    ideal = factors.ideal_counts
    u, v = ideal[IdealCountKind.MINUS_TWO], ideal[IdealCountKind.GAUSSIAN]
    # a non-square's root reads -1, which is 7 mod 8
    exceptional = (roots % 8 == 3) | (roots % 8 == 5)
    return np.where(exceptional, (u % 4) * (v % 4) % 4 == 3, (u - v) % 4 == 0), False


def _check_l3_3(n: int, ctx: SeriesContext) -> Verdict:
    u = quadarith.ideal_count(n, IdealCountKind.MINUS_TWO)
    v = quadarith.ideal_count(n, IdealCountKind.GAUSSIAN)
    u1 = quadarith.count_square_tuples(n, (1, 2))
    v1 = quadarith.count_square_tuples(n, (1, 4))
    sq = 1 if quadarith.is_square(n) else 0
    ok = u == 2 * u1 - sq and v == 2 * v1 - sq
    return _verdict(ok, u=u, v=v, count_1_2=u1, count_1_4=v1, square=bool(sq))


def _batch_l3_3(factors, roots, u1, v1):
    ideal = factors.ideal_counts
    sq = roots >= 0
    ok = ((ideal[IdealCountKind.MINUS_TWO] == 2 * u1 - sq)
          & (ideal[IdealCountKind.GAUSSIAN] == 2 * v1 - sq))
    return ok, False


def _check_l3_5(n: int, ctx: SeriesContext) -> Verdict:
    coeff = ctx.seventh_coefficient(n)
    square = quadarith.is_square(n)
    return _verdict((coeff == 1) == square, coefficient=coeff, square=square)


def _check_l3_7_identity(n: int, ctx: SeriesContext) -> Verdict:
    r3 = quadarith.count_square_tuples(2 * n, (1, 1, 1))
    t = quadarith.count_square_tuples(n, (1, 2, 4))
    return _verdict(r3 == 6 * t, r3=r3, count_1_2_4=t)


def _check_t3_8(n: int, ctx: SeriesContext) -> Verdict:
    member = ctx.member(n)
    r3 = quadarith.count_square_tuples(2 * n, (1, 1, 1))
    return _verdict(member == (r3 % 4 == 2), member=member, r3=r3)


def _check_c3_10(n: int, ctx: SeriesContext) -> Verdict:
    odd = quadarith.odd_exponent_prime_count(quadarith.factorize(n))
    if odd < 3:
        return _vacuous(odd_exponent_primes=odd)
    r3 = quadarith.count_square_tuples(2 * n, (1, 1, 1))
    return _verdict(r3 % 4 == 0, odd_exponent_primes=odd, r3=r3)


def _batch_c3_10(r3, factors):
    return r3 % 4 == 0, factors.odd_exponent_primes < 3


def _check_gauss(scale: int, disc: int, multiple: int, n: int,
                 ctx: SeriesContext) -> Verdict:
    # primitive signed r3(scale * n) equals multiple * h(-disc * n)
    signed = quadarith.count_signed_representations(scale * n, (1, 1, 1), primitive=True)
    h = quadarith.class_number(-disc * n)
    return _verdict(signed == multiple * h, signed_primitive=signed, class_number=h)


def _batch_multiple(multiple: int, count, other):
    # one count is a fixed multiple of another
    return count == multiple * other, False


@dataclass(frozen=True)
class _Statement:
    # the statement applies to n >= minimum with n = residue mod modulus;
    # batch takes the columns of the keys in reads, in that order
    modulus: int
    residue: int
    verifier: Callable[[int, SeriesContext], Verdict]
    batch: Callable[..., tuple]
    reads: tuple[tuple, ...]
    description: str
    minimum: int = 0


_REGISTRY: dict[StatementId, _Statement] = {
    StatementId.T1_1: _Statement(
        2, 0, _check_t1_1, _batch_square_flag, (("member",), ("roots", 2)),
        "even n is in B iff n/2 is a perfect square",
    ),
    StatementId.T1_2: _Statement(
        4, 1, functools.partial(_check_parity, (1, 4)),
        functools.partial(_batch_residue, 2, 1),
        (("member",), ("class_tuples", (1, 4), 1)),
        "n = 1 mod 4: membership matches the parity of the (1,4) square-tuple count",
    ),
    StatementId.T1_4: _Statement(
        8, 3, functools.partial(_check_parity, (1, 2, 8)),
        functools.partial(_batch_residue, 2, 1),
        (("member",), ("class_tuples", (1, 2, 8), 1)),
        "n = 3 mod 8: membership matches the parity of the (1,2,8) square-tuple count",
    ),
    StatementId.L2_1_IDENTITY: _Statement(
        8, 3, _check_l2_1_identity, _batch_l2_1_identity,
        (("class_tuples", (1, 1, 1), 1), ("class_tuples", (1, 2), 1),
         ("class_tuples", (1, 2, 8), 1)),
        "n = 3 mod 8: (1,1,1) count plus (1,2) count equals twice the (1,2,8) count",
    ),
    StatementId.L2_1_SUFFICIENCY: _Statement(
        8, 3, _check_l2_1_sufficiency, _batch_l2_1_sufficiency,
        (("class_tuples", (1, 1, 1), 1), ("class_tuples", (1, 2), 1), ("member",)),
        "n = 3 mod 8: if both counts are divisible by 4, n is not in B",
    ),
    StatementId.L2_2: _Statement(
        8, 3, functools.partial(_check_primitive_triples, 1), _batch_primitive_triples,
        (("primitive_r3", 1), ("factors",)),
        "n = 3 mod 8 with >= 3 distinct primes: primitive triple count is divisible by 4",
    ),
    StatementId.T2_3: _Statement(
        8, 3, _check_three_odd_primes, _batch_three_odd_primes,
        (("member",), ("factors",)),
        "n = 3 mod 8 with >= 3 odd-exponent primes is not in B",
    ),
    StatementId.L3_1: _Statement(
        8, 1, _check_l3_1, _batch_l3_1, (("factors",), ("roots", 1)),
        "n = 1 mod 8: the two ideal counts agree mod 4, except n = (8k+/-3)^2 "
        "where their product is 3 mod 4",
    ),
    StatementId.L3_3: _Statement(
        2, 1, _check_l3_3, _batch_l3_3,
        (("factors",), ("roots", 1), ("class_tuples", (1, 2), 1), ("class_tuples", (1, 4), 1)),
        "odd n: ideal counts equal twice the (1,2) and (1,4) square-tuple counts, "
        "each less one when n is a square (V-side count read as the (1,4) form; "
        "as interpreted)",
    ),
    StatementId.L3_5: _Statement(
        16, 1, _check_l3_5, _batch_square_flag, (("seventh",), ("roots", 1)),
        "n = 1 mod 16: the 1/g^7 coefficient is 1 iff n is a perfect square",
    ),
    StatementId.T3_6: _Statement(
        16, 7, functools.partial(_check_parity, (1, 2, 4)),
        functools.partial(_batch_residue, 2, 1),
        (("member",), ("class_tuples", (1, 2, 4), 1)),
        "n = 7 mod 16: membership matches the parity of the (1,2,4) square-tuple count",
    ),
    StatementId.L3_7_IDENTITY: _Statement(
        8, 7, _check_l3_7_identity, functools.partial(_batch_multiple, 6),
        (("class_tuples", (1, 1, 1), 2), ("class_tuples", (1, 2, 4), 1)),
        "n = 7 mod 8: the (1,1,1) count at 2n equals six times the (1,2,4) count at n",
    ),
    StatementId.T3_8: _Statement(
        16, 7, _check_t3_8, functools.partial(_batch_residue, 4, 2),
        (("member",), ("class_tuples", (1, 1, 1), 2)),
        "n = 7 mod 16: membership matches the (1,1,1) count at 2n being 2 mod 4",
    ),
    StatementId.L3_9: _Statement(
        8, 7, functools.partial(_check_primitive_triples, 2), _batch_primitive_triples,
        (("primitive_r3", 2), ("factors",)),
        "n = 7 mod 8 with >= 3 distinct primes: primitive triple count at 2n is "
        "divisible by 4",
    ),
    StatementId.C3_10: _Statement(
        8, 7, _check_c3_10, _batch_c3_10, (("class_tuples", (1, 1, 1), 2), ("factors",)),
        "n = 7 mod 8 with >= 3 odd-exponent primes: (1,1,1) count at 2n is divisible by 4",
    ),
    StatementId.T3_11: _Statement(
        16, 7, _check_three_odd_primes, _batch_three_odd_primes,
        (("member",), ("factors",)),
        "n = 7 mod 16 with >= 3 odd-exponent primes is not in B",
    ),
    StatementId.GAUSS_24H: _Statement(
        8, 3, functools.partial(_check_gauss, 1, 1, 24), functools.partial(_batch_multiple, 24),
        (("primitive_r3", 1), ("class_numbers", 1)),
        "n = 3 mod 8, n > 3: primitive signed triple count equals 24 h(-n)",
        minimum=4,
    ),
    StatementId.GAUSS_12H: _Statement(
        8, 7, functools.partial(_check_gauss, 2, 8, 12), functools.partial(_batch_multiple, 12),
        (("primitive_r3", 2), ("class_numbers", 8)),
        "n = 7 mod 8: primitive signed triple count at 2n equals 12 h(-8n)",
    ),
}

ALL_STATEMENTS: tuple[StatementId, ...] = tuple(StatementId)


def description(sid: StatementId) -> str:
    """Human-readable statement of what the id asserts."""
    return _REGISTRY[sid].description


def requires_seventh(sid: StatementId) -> bool:
    """True when verifying sid needs the 1/g^7 bitmap."""
    return ("seventh",) in _REGISTRY[sid].reads


def _grid(sid: StatementId, lo: int, hi: int) -> range:
    # the n in [lo, hi] that the statement applies to
    stmt = _REGISTRY[sid]
    start = max(lo, stmt.minimum)
    return range(start + (stmt.residue - start) % stmt.modulus, hi + 1, stmt.modulus)


def applicable(sid: StatementId, n: int) -> bool:
    """True when the statement's condition covers n."""
    return n in _grid(sid, n, n)


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


def _scan(sid: StatementId, lo: int, hi: int, ctx: SeriesContext, columns: list):
    grid = _grid(sid, lo, hi)
    if not grid:  # nothing applies, and nothing was read
        return 0, 0, 0, hi - lo + 1, (), 0
    ok, vacuous = _REGISTRY[sid].batch(*columns)
    bad = np.flatnonzero(~(ok | vacuous))
    # witnesses come from the scalar oracle, which must agree that they fail
    kept = []
    for n in (grid[int(i)] for i in bad[:MAX_RECORDED_VIOLATIONS]):
        verdict = verify(sid, n, ctx)
        if verdict.status is not Status.VIOLATED:
            raise AssertionError(f"{sid.name} at n={n}: batch verdict "
                                 f"VIOLATED, scalar verdict {verdict.status.name}")
        kept.append((n, verdict.witness))
    vacuous_n = int(np.count_nonzero(vacuous))
    return (len(grid) - vacuous_n - bad.size, vacuous_n, bad.size,
            hi - lo + 1 - len(grid), tuple(kept), bad.size - len(kept))


def check_range(ids: Iterable[StatementId], lo: int, hi: int) -> None:
    """Raise ValueError unless run_suite supports [lo, hi] for these statements.

    The statements that read a class-number column stop at
    CLASS_NUMBER_HI_MAX, which bounds the time of the class-number
    enumeration (it grows like hi^1.5), not memory: L3_9 reads the same
    primitive r3 column as GAUSS_12H and takes any hi. README "Supported
    ranges" gives the measured times and peaks.
    """
    if lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi")
    names = [i.name for i in ids
             if any(key[0] == "class_numbers" for key in _REGISTRY[i].reads)]
    if hi > CLASS_NUMBER_HI_MAX and names:
        raise ValueError(f"{','.join(names)}: class-number statements take hi <= "
                         f"{CLASS_NUMBER_HI_MAX}")


def run_suite(ids: Iterable[StatementId], lo: int, hi: int,
              ctx: SeriesContext) -> list[TheoremReport]:
    """One report per statement over every applicable n in [lo, hi].

    Each quantity the requested statements use is computed once as a column
    on the coarsest progression that holds the grid (the n it applies to) of
    every reader, at its first reader, and dropped after its last; each
    statement's verdicts come out as one array over its grid. The report
    keeps the first MAX_RECORDED_VIOLATIONS violations, in increasing n,
    with witnesses from the scalar `verify`, and counts the rest as dropped.
    The scalar checkers stay the oracle of the columns.
    """
    ids = list(ids)
    check_range(ids, lo, hi)
    reads = [_REGISTRY[i].reads for i in ids]
    if any(("member",) in keys for keys in reads):
        if ctx.inv_theta.length <= hi:
            raise InsufficientBitmapError(hi + 1, ctx.inv_theta.length, "1/g bitmap")
    if any(("seventh",) in keys for keys in reads):
        if ctx.inv_theta7 is None:
            raise ValueError("requested statements need a 1/g^7 bitmap")
        if ctx.inv_theta7.length <= hi:
            raise InsufficientBitmapError(hi + 1, ctx.inv_theta7.length, "1/g^7 bitmap")

    # a statement that applies nowhere in the window reads nothing; each key
    # is built on the coarsest progression to hi that holds its readers' grids
    grids = [_grid(i, lo, hi) for i in ids]
    reads = [keys if grid else () for keys, grid in zip(reads, grids)]
    spans: dict = {}
    for keys, grid in zip(reads, grids):
        for key in keys:
            span = spans.get(key, grid)
            spans[key] = range(min(span.start, grid.start), hi + 1,
                               math.gcd(span.step, grid.step, span.start - grid.start))
    readers = collections.Counter(key for keys in reads for key in keys)
    built: dict = {}
    reports = []
    for sid, grid, keys in zip(ids, grids, reads):
        for key in keys:
            if key not in built:
                built[key] = _COLUMNS[key[0]](spans[key], ctx, *key[1:])
        result = _scan(sid, lo, hi, ctx, [
            built[key][spans[key].index(grid.start) :: grid.step // spans[key].step]
            for key in keys])
        reports.append(TheoremReport(sid, lo, hi, *result))
        readers.subtract(keys)
        for key in keys:
            if not readers[key]:
                del built[key]
    return reports


def reports_to_csv(reports: Iterable[TheoremReport]) -> str:
    """Render suite reports as CSV, one row per statement."""
    lines = ["statement_id,n_lo,n_hi,holds,vacuous,violated,first_violation_n"]
    for r in reports:
        first = "" if r.first_violation is None else str(r.first_violation)
        lines.append(f"{r.statement.name},{r.lo},{r.hi},"
                     f"{r.holds},{r.vacuous},{r.violated},{first}")
    return "\n".join(lines) + "\n"

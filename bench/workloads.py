"""The benchmark's workloads: CLI commands, their trivial-size twins, and checks.

Each workload is a closed loop of `thetaparity` commands (one client; the
next command starts when the last one exits). Every check reads only what a
command printed and wrote, and compares it with values recorded from the
seed commit or with small oracles written here, independent of the package:

- `.f2s` files: sha256 and popcount recorded from the seed commit, or, for
  sizes that depend on the workload seed, a byte-equal comparison with a
  bitmap built here by the plain recurrence;
- census: counts recomputed from the bitmap file, and at x = 2^16 the
  computed lock (13, 94, -231, 207, -120, 14, -270, -7). The required table
  of criterion C2 ends at +7 and is not used here;
- alpha: every beta recomputed from the bitmap file, every alpha as printed,
  and the extremes at x = 5*2^10 (argmin) and 37*2^10 (argmax), compared
  exactly;
- verify: zero violations, applicable counts equal to what the statements'
  congruences give, and for window start 0 a byte-equal golden CSV.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"

B_LIMIT = 2**23 + 1
BIG = 2**23

# (series, limit) -> (sha256 of the .f2s file, popcount), from the seed commit
RECORDED_BITMAPS = {
    ("inv-theta", B_LIMIT): (
        "c636d386892020d54bf97d04157a0cbbf3f0d0591ba9720e24a61c66e39323d0", 1134613),
    ("inv-pentagonal", BIG): (
        "a30a0cf28b4cf88355dea5723de26bcc911745a3be6ac6b90e1577450172270e", 4195611),
    ("inv-theta7", BIG): (
        "e34e0f8307fc1e5d2d9fcee2fe5711056a999552d7c96bca8ac437b6a9847bfe", 566861),
    ("inv-theta7", 10**5 + 1): (
        "a21ed1579a552dcd51dfcf9951295e120b73424c8f39405b2c49593704311130", 8046),
}
ORACLE_MAX = 1 << 15  # largest unrecorded bitmap the recurrence oracle builds

CENSUS_LOCK = (13, 94, -231, 207, -120, 14, -270, -7)
ALPHA_EXTREMES = (5 * 2**10, 37 * 2**10)  # (argmin x, argmax x) at max-x 2^19
NON15_COUNT = (124694, 872769)  # members not 15 mod 16 up to 2^20 and 2^23

MEMBER_STATEMENTS = ("T1_1", "T1_2", "T1_4", "T3_6", "T3_8", "L3_1", "L3_3", "L3_5")
ALL_STATEMENTS = (
    "T1_1", "T1_2", "T1_4", "L2_1_IDENTITY", "L2_1_SUFFICIENCY", "L2_2", "T2_3",
    "L3_1", "L3_3", "L3_5", "T3_6", "L3_7_IDENTITY", "T3_8", "L3_9", "C3_10",
    "T3_11", "GAUSS_24H", "GAUSS_12H",
)
# statement -> (modulus, residue, excluded n): where each statement applies
CONGRUENCE = {
    "T1_1": (2, 0, ()), "T1_2": (4, 1, ()), "T1_4": (8, 3, ()),
    "L2_1_IDENTITY": (8, 3, ()), "L2_1_SUFFICIENCY": (8, 3, ()),
    "L2_2": (8, 3, ()), "T2_3": (8, 3, ()), "L3_1": (8, 1, ()),
    "L3_3": (2, 1, ()), "L3_5": (16, 1, ()), "T3_6": (16, 7, ()),
    "L3_7_IDENTITY": (8, 7, ()), "T3_8": (16, 7, ()), "L3_9": (8, 7, ()),
    "C3_10": (8, 7, ()), "T3_11": (16, 7, ()), "GAUSS_24H": (8, 3, (3,)),
    "GAUSS_12H": (8, 7, ()),
}

# Verify windows are sized so that a run holds several passes. The class
# number work per n grows with n, so the window start stays in a narrow band.
MEMBER_WINDOW = 10**4
ARITH_WINDOW = 5 * 10**3


Check = Callable[[Path, bytes], list]


@dataclass
class Command:
    """One CLI invocation and the check of what it printed and wrote."""

    label: str  # "gen.inv-theta", "verify", "census", "alpha"
    args: list
    check: Check
    items: int = 0  # coefficients built, or (statement, n) pairs checked
    outputs: tuple = ()  # files it writes, relative to its working directory


@dataclass
class Workload:
    commands: list
    trivial: list  # the same commands at a trivial size, for setup_s
    inputs: list = field(default_factory=list)  # run once in set-up
    bitmap_check: str = ""  # traced runs check this 1/g bitmap by g * (1/g) = 1


def window_start(seed: int) -> int:
    """Verify window start: a multiple of 16 in [0, 48]; seed 0 gives 0."""
    return 16 * (seed % 4)


# --- independent bitmap oracle ---------------------------------------------

def _squares(limit):
    return [k * k for k in range(1, math.isqrt(limit - 1) + 1)]


def _pentagonals(limit):
    out = []
    k = 1
    while k * (3 * k - 1) // 2 < limit:
        out.extend(p for p in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if p < limit)
        k += 1
    return sorted(out)


def _reciprocal(exponents, limit):
    # b_0 = 1, b_n = sum of b_(n-k) over the positive exponents k <= n, mod 2
    e = np.array(exponents, dtype=np.int64)
    b = np.zeros(limit, dtype=np.uint8)
    b[0] = 1
    for n in range(1, limit):
        b[n] = b[n - e[: np.searchsorted(e, n, side="right")]].sum() & 1
    return b


def oracle_bits(series: str, limit: int) -> np.ndarray:
    """Coefficients of the series `gen` builds, as a 0/1 array."""
    if series == "inv-pentagonal":
        return _reciprocal(_pentagonals(limit), limit)
    h = _reciprocal(_squares(limit), limit)
    if series == "inv-theta":
        return h
    # 1/g^7 = g * (1/g)^8
    h8 = np.zeros(limit, dtype=np.uint8)
    h8[::8] = h[: (limit + 7) // 8]
    out = h8.copy()
    for s in _squares(limit):
        out[s:] ^= h8[: limit - s]
    return out


def f2s_bytes(bits: np.ndarray) -> bytes:
    nwords = (len(bits) + 63) // 64
    payload = np.packbits(bits, bitorder="little").tobytes()
    return b"F2S1" + len(bits).to_bytes(8, "little") + payload.ljust(8 * nwords, b"\0")


def read_bits(path: Path) -> np.ndarray:
    data = path.read_bytes()
    count = int.from_bytes(data[4:12], "little")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=12), bitorder="little")
    return bits[:count]


# --- checks -----------------------------------------------------------------

def check_gen(series: str, limit: int, out: str) -> Check:
    def check(cwd: Path, stdout: bytes) -> list:
        data = (cwd / out).read_bytes()
        recorded = RECORDED_BITMAPS.get((series, limit))
        if recorded is not None:
            digest, popcount = recorded
            problems = [] if hashlib.sha256(data).hexdigest() == digest else [
                f"{out}: sha256 differs from the recorded {series} {limit}"]
        elif limit <= ORACLE_MAX:
            expected = oracle_bits(series, limit)
            popcount = int(expected.sum())
            problems = [] if data == f2s_bytes(expected) else [
                f"{out}: differs from the recurrence oracle for {series} {limit}"]
        else:
            return [f"{out}: no recorded value for {series} {limit}"]
        if (series, limit) == ("inv-theta", B_LIMIT):
            bits = read_bits(cwd / out)
            non15 = tuple(int(bits[:n + 1].sum()) - int(bits[15:n + 1:16].sum())
                          for n in (1 << 20, 1 << 23))
            if non15 != NON15_COUNT:
                problems.append(f"{out}: non15_count {non15}, expected {NON15_COUNT}")
        line = f"{out}: {limit} coefficients, {popcount} set bits\n".encode()
        if stdout != line:
            problems.append(f"gen {series}: printed {stdout[:120]!r}, expected {line!r}")
        return problems
    return check


def _csv_rows(stdout: bytes, header: str) -> list:
    lines = stdout.decode().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_census(x: int, intervals: int, bitmap: Path, lock=None) -> Check:
    def check(cwd: Path, stdout: bytes) -> list:
        in15 = read_bits(cwd / bitmap)[15::16].astype(np.int64)
        rows = _csv_rows(stdout, "interval_index,lo,hi,count,count_minus_half_x")
        width = 16 * x
        expected = [[str(j), str(j * width), str((j + 1) * width),
                     str(int(in15[j * x:(j + 1) * x].sum()))] for j in range(intervals)]
        if [r[:4] for r in rows] != expected:
            return [f"census x={x}: counts differ from the bitmap"]
        if any(float(r[4]) != int(r[3]) - x / 2 for r in rows):
            return [f"census x={x}: count_minus_half_x inconsistent with count"]
        if lock is not None and tuple(int(r[4]) for r in rows) != lock:
            return [f"census x={x}: offsets differ from the computed lock {lock}"]
        return []
    return check


def check_alpha(max_x: int, step: int, bitmap: Path, extremes=None) -> Check:
    def check(cwd: Path, stdout: bytes) -> list:
        beta = np.cumsum(read_bits(cwd / bitmap)[15::16].astype(np.int64))
        rows = _csv_rows(stdout, "x,beta,alpha")
        xs = list(range(step, max_x + 1, step))
        expected = []
        for x in xs:
            b = int(beta[x - 1])
            expected.append([str(x), str(b), f"{(b - x / 2) / math.sqrt(x):.6f}"])
        if rows != expected:
            return [f"alpha max-x={max_x}: rows differ from the bitmap"]
        if extremes is not None:
            # alpha = d / (2 sqrt(x)) with d = 2 beta - x: order by d|d|/x, exactly
            keys = [Fraction((2 * int(beta[x - 1]) - x) * abs(2 * int(beta[x - 1]) - x), x)
                    for x in xs]
            lo = xs[keys.index(min(keys))]
            hi = xs[keys.index(max(keys))]
            if (lo, hi) != extremes:
                return [f"alpha extremes at x={lo}, {hi}, expected {extremes}"]
        return []
    return check


def applicable_count(sid: str, lo: int, hi: int) -> int:
    modulus, residue, excluded = CONGRUENCE[sid]
    return sum(1 for n in range(lo, hi + 1) if n % modulus == residue and n not in excluded)


def check_verify(ids, lo: int, hi: int, golden: Path | None) -> Check:
    def check(cwd: Path, stdout: bytes) -> list:
        rows = _csv_rows(stdout, "statement_id,n_lo,n_hi,holds,vacuous,violated,"
                                 "first_violation_n")
        if [r[0] for r in rows] != list(ids):
            return [f"verify: statements {[r[0] for r in rows]}, expected {list(ids)}"]
        problems = []
        for sid, n_lo, n_hi, holds, vacuous, violated, first in rows:
            if (int(n_lo), int(n_hi)) != (lo, hi) or violated != "0" or first:
                problems.append(f"verify {sid}: range {n_lo}..{n_hi}, "
                                f"{violated} violations, first at {first!r}")
            elif int(holds) + int(vacuous) != applicable_count(sid, lo, hi):
                problems.append(f"verify {sid}: {holds}+{vacuous} checked, "
                                f"{applicable_count(sid, lo, hi)} applicable")
        if golden is not None and stdout != golden.read_bytes():
            problems.append(f"verify: output differs from {golden.name}")
        return problems
    return check


# --- the workloads ------------------------------------------------------------

def _gen(series: str, limit: int, out: str) -> Command:
    return Command(f"gen.{series}", ["gen", series, str(limit), "--out", out],
                   check_gen(series, limit, out), items=limit, outputs=(out,))


def _verify(ids, lo, hi, inputs: Path, seventh: str, golden) -> Command:
    ids = tuple(ids)
    spec = "all" if ids == ALL_STATEMENTS else ",".join(ids)
    return Command("verify", ["verify", spec, str(lo), str(hi),
                              "--inv-theta", str(inputs / "B.f2s"),
                              "--inv-theta7", str(inputs / seventh)],
                   check_verify(ids, lo, hi, golden),
                   items=sum(applicable_count(s, lo, hi) for s in ids))


def _census(x, intervals, bitmap: Path, lock=None) -> Command:
    return Command("census", ["census", "--bitmap", str(bitmap), "--x", str(x),
                              "--intervals", str(intervals)],
                   check_census(x, intervals, bitmap, lock))


def _alpha(max_x, step, bitmap: Path, extremes=None) -> Command:
    return Command("alpha", ["alpha", "--bitmap", str(bitmap), "--max-x", str(max_x),
                             "--step", str(step)],
                   check_alpha(max_x, step, bitmap, extremes))


def bitmap_2e23(seed: int, inputs: Path, runs: Path) -> Workload:
    """The paper's headline build; `runs` holds the B file the trivial twins read."""
    b = runs / "B.f2s"  # written by the measured gen, read by the trivial twins
    return Workload(
        commands=[
            _gen("inv-theta", B_LIMIT, "B.f2s"),
            _gen("inv-pentagonal", BIG, "Bstar.f2s"),
            _gen("inv-theta7", BIG, "B7.f2s"),
            _census(2**16, 8, Path("B.f2s"), CENSUS_LOCK),
            _alpha(2**19, 2**10, Path("B.f2s"), ALPHA_EXTREMES),
        ],
        trivial=[
            _gen("inv-theta", 1, "B1.f2s"),
            _gen("inv-pentagonal", 1, "Bstar1.f2s"),
            _gen("inv-theta7", 1, "B71.f2s"),
            _census(1, 8, b),
            _alpha(1, 1, b),
        ],
        bitmap_check="B.f2s",
    )


def verify_member(seed: int, inputs: Path, runs: Path) -> Workload:
    lo = window_start(seed)
    hi = lo + MEMBER_WINDOW
    golden = GOLDEN / "verify-member-lo0.csv" if lo == 0 else None
    return Workload(
        inputs=[_gen("inv-theta", B_LIMIT, "B.f2s"), _gen("inv-theta7", 10**5 + 1, "B7.f2s")],
        commands=[_verify(MEMBER_STATEMENTS, lo, hi, inputs, "B7.f2s", golden)],
        trivial=[_verify(MEMBER_STATEMENTS, lo, lo, inputs, "B7.f2s", None)],
    )


def verify_arith(seed: int, inputs: Path, runs: Path) -> Workload:
    lo = window_start(seed)
    hi = lo + ARITH_WINDOW
    golden = GOLDEN / "verify-arith-lo0.csv" if lo == 0 else None
    return Workload(
        inputs=[_gen("inv-theta", hi + 1, "B.f2s"), _gen("inv-theta7", hi + 1, "B7.f2s")],
        commands=[_verify(ALL_STATEMENTS, lo, hi, inputs, "B7.f2s", golden)],
        trivial=[_verify(ALL_STATEMENTS, lo, lo, inputs, "B7.f2s", None)],
    )


WORKLOADS = {
    "bitmap-2e23": bitmap_2e23,
    "verify-member": verify_member,
    "verify-arith": verify_arith,
}

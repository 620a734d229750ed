"""Command-line front end.

Subcommands build and persist bitmaps, run the statement suite over a range,
emit census tables and alpha sweeps as CSV, and answer one-off arithmetic
queries. Exit codes: 0 success (and, for verify, zero violations), 1 for
violations or I/O failure, 2 for usage errors, for every argument the
library rejects with ValueError and for queries too large for memory, 3 when
a bitmap is too short for the requested scan. `main` is the only place that
maps an exception to an exit code. Each handler and argument type imports
the layers it uses: only `gen` loads the series kernel, and `census` and
`alpha` read and scan bitmaps without numpy. `verify`, `census` and `alpha`
read only the prefix of a bitmap that they scan.

Integer arguments accept small arithmetic expressions such as 65536,
2^23+1 or 5*2^10, which keeps reproduction runs copy-pasteable. One leading
minus negates the whole expression, so -2^2 is -4; counts then reject it as
out of range.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from itertools import chain, islice

from .bitseries import BitmapFormatError, InsufficientBitmapError, read_f2s, write_f2s

__all__ = ["main"]
_LINES_PER_WRITE = 1 << 14  # CSV lines per write, about 2 MB held at once


def _unsigned(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an unsigned integer: {text!r}")
    return int(text)


def _parse_count(text: str) -> int:
    """Integer expression: an optional leading minus over sums of products
    of N or N^N, each N a string of decimal digits."""
    negative = text.startswith("-")
    try:
        total = 0
        for term in text.removeprefix("-").split("+"):
            prod = 1
            for factor in term.split("*"):
                if "^" in factor:
                    base, _, exp = factor.partition("^")
                    e = _unsigned(exp)
                    if e > 64:
                        raise ValueError("exponent out of range")
                    prod *= _unsigned(base) ** e
                else:
                    prod *= _unsigned(factor)
            total += prod
        return -total if negative else total
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad count expression {text!r}") from exc


def _count(floor: int):
    """Parser of count expressions worth at least floor."""
    def parse(text: str) -> int:
        value = _parse_count(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}")
        return value
    return parse


def _form(text: str) -> tuple[int, ...]:
    # integers only: the counts check the form, and main maps their ValueError
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad form {text!r}: {exc}") from exc


def _statement_ids(text: str) -> list:
    from . import theorems

    if text.strip().lower() == "all":
        return list(theorems.ALL_STATEMENTS)
    ids = []
    for token in text.split(","):
        name = token.strip().upper()
        try:
            ids.append(theorems.StatementId[name])
        except KeyError:
            raise argparse.ArgumentTypeError(f"unknown statement id {token!r}")
    return ids


def _write_lines(lines, path: str | None) -> None:
    lines = iter(lines)  # so that each islice goes on where the last one stopped
    with nullcontext(sys.stdout) if path is None else open(
            path, "w", encoding="utf-8", newline="\n") as fh:
        while chunk := list(islice(lines, _LINES_PER_WRITE)):
            fh.write("\n".join(chunk) + "\n")


# the names of gen's series, which f2series.SERIES builds
_SERIES = ("inv-pentagonal", "inv-theta", "inv-theta7", "pentagonal", "theta")


# gen's table, read as cli._BUILDERS by bench/selftest.py
def __getattr__(name):
    if name == "_BUILDERS":
        from .f2series import SERIES
        return SERIES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cmd_gen(args) -> int:
    from .f2series import SERIES

    need = 8 * ((args.limit + 63) // 64)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise MemoryError(f"{args.limit} coefficients need a {need}-byte bitmap, "
                          f"more than the {have} bytes of physical memory")
    series = SERIES[args.series](args.limit)
    write_f2s(series, args.out)
    print(f"{args.out}: {series.length} coefficients, {series.popcount()} set bits")
    return 0


def _cmd_verify(args) -> int:
    from . import theorems

    ids = args.statements
    theorems.check_range(ids, args.lo, args.hi)
    if any(theorems.requires_seventh(i) for i in ids) and not args.inv_theta7:
        raise ValueError("the requested statements need --inv-theta7")
    # statements read coefficients only for n in [lo, hi]
    inv = read_f2s(args.inv_theta, args.hi + 1)
    inv7 = read_f2s(args.inv_theta7, args.hi + 1) if args.inv_theta7 else None
    reports = theorems.run_suite(ids, args.lo, args.hi, theorems.SeriesContext(inv, inv7))
    _write_lines(theorems.reports_to_csv(reports).splitlines(), args.out)
    return 0 if all(r.violated == 0 for r in reports) else 1


def _half_delta(count: int, x: int) -> str:
    # count - x/2, exactly; integral whenever x is even
    twice = 2 * count - x
    return str(twice // 2) if twice % 2 == 0 else f"{twice / 2:.1f}"


def _cmd_census(args) -> int:
    from . import census

    table = census.interval_counts(read_f2s(args.bitmap, 16 * args.x * args.intervals),
                                   args.x, args.intervals)
    w = table.interval_width
    _write_lines(chain(["interval_index,lo,hi,count,count_minus_half_x"],
                       (f"{j},{j * w},{(j + 1) * w},{c},{_half_delta(c, table.x)}"
                        for j, c in enumerate(table.counts))), args.out)
    return 0


def _cmd_alpha(args) -> int:
    from . import census

    # the bitmap is freed before the rows are formatted
    sweep = census.alpha_sweep(read_f2s(args.bitmap, 16 * args.max_x), args.max_x, args.step)
    _write_lines(chain(["x,beta,alpha"], (f"{r.x},{r.beta},{r.alpha:.6f}" for r in sweep.rows)),
                 args.out)
    return 0


def _cmd_repcount(args) -> int:
    from . import quadarith

    if args.primitive and not args.signed:
        raise ValueError("--primitive requires --signed")
    if args.signed:
        value = quadarith.count_signed_representations(
            args.n, args.form, primitive=args.primitive)
    else:
        value = quadarith.count_square_tuples(args.n, args.form)
    print(value)
    return 0


def _cmd_classnum(args) -> int:
    from . import quadarith

    print(quadarith.class_number(args.disc))
    return 0


def _cmd_jacobi(args) -> int:
    from . import quadarith

    print(quadarith.jacobi(args.a, args.n))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetaparity",
        description="GF(2) theta-series reciprocal bitmaps and their "
                    "arithmetic cross-checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="build a bitmap and write it as .f2s")
    p_gen.add_argument("series", choices=_SERIES)
    p_gen.add_argument("limit", type=_count(1),
                       help="coefficient count, e.g. 2^23+1")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(run=_cmd_gen)

    p_ver = sub.add_parser("verify", help="run the statement suite over a range")
    p_ver.add_argument("statements", type=_statement_ids,
                       help="'all' or comma-separated ids like T1_1,L3_5")
    p_ver.add_argument("lo", type=_count(0))
    p_ver.add_argument("hi", type=_count(0))
    p_ver.add_argument("--inv-theta", required=True, help=".f2s bitmap of 1/g")
    p_ver.add_argument("--inv-theta7", help=".f2s bitmap of 1/g^7 (for L3_5)")
    p_ver.add_argument("--out", help="write the CSV report here instead of stdout")
    p_ver.set_defaults(run=_cmd_verify)

    p_cen = sub.add_parser("census", help="count members = 15 mod 16 per interval")
    p_cen.add_argument("--x", type=_count(1), required=True,
                       help="interval width is 16*x")
    p_cen.add_argument("--intervals", type=_count(0), required=True)
    p_cen.add_argument("--bitmap", required=True)
    p_cen.add_argument("--out")
    p_cen.set_defaults(run=_cmd_census)

    p_alp = sub.add_parser("alpha", help="sweep the deviation alpha(x)")
    p_alp.add_argument("--max-x", type=_count(1), required=True)
    p_alp.add_argument("--step", type=_count(1), required=True)
    p_alp.add_argument("--bitmap", required=True)
    p_alp.add_argument("--out")
    p_alp.set_defaults(run=_cmd_alpha)

    p_rep = sub.add_parser("repcount", help="representation counts for one n")
    p_rep.add_argument("--n", type=_count(0), required=True)
    p_rep.add_argument("--form", type=_form, required=True,
                       help="comma-separated coefficients, e.g. 1,1,1")
    p_rep.add_argument("--signed", action="store_true",
                       help="count signed integer vectors instead of square tuples")
    p_rep.add_argument("--primitive", action="store_true",
                       help="restrict to gcd-1 vectors (needs --signed)")
    p_rep.set_defaults(run=_cmd_repcount)

    p_cls = sub.add_parser("classnum", help="class number of a negative discriminant")
    p_cls.add_argument("--disc", type=_parse_count, required=True)
    p_cls.set_defaults(run=_cmd_classnum)

    p_jac = sub.add_parser("jacobi", help="Jacobi symbol (a | n)")
    p_jac.add_argument("--a", type=_parse_count, required=True)
    p_jac.add_argument("--n", type=_parse_count, required=True)
    p_jac.set_defaults(run=_cmd_jacobi)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except InsufficientBitmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, BitmapFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f" ({exc})" if str(exc) else ""), file=sys.stderr)
        return 2
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())

"""Run every registered statement checker over a range of n.

Each statement ties membership in B (or a representation count) to an
arithmetic condition; the suite evaluates all of them pointwise and tallies
holds / vacuous / violated. A healthy run ends with zero violations.
"""

import argparse
import time

import thetaparity as tp


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--hi", type=int, default=10 ** 4,
                    help="check n in [0, hi] (default 10000)")
    args = ap.parse_args()

    ctx = tp.SeriesContext(tp.build_B(args.hi + 1),
                           tp.inverse_seventh_power(args.hi + 1))

    t0 = time.perf_counter()
    reports = tp.run_suite(list(tp.StatementId), 0, args.hi, ctx)
    elapsed = time.perf_counter() - t0

    print(f"{'statement':<20} {'holds':>8} {'vacuous':>8} {'violated':>9}")
    for r in reports:
        print(f"{r.statement.name:<20} {r.holds:>8} {r.vacuous:>8} "
              f"{r.violated:>9}")
        if r.violations:
            n, witness = r.violations[0]
            print(f"  first violation at n={n}: {witness}")

    total_violated = sum(r.violated for r in reports)
    print(f"\n{len(reports)} statements over [0, {args.hi}] "
          f"in {elapsed:.1f}s, {total_violated} violations")
    for r in reports:
        print(f"  {r.statement.name}: {tp.description(r.statement)}")


if __name__ == "__main__":
    main()

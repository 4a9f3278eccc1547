#!/usr/bin/env python3
"""Tabulate hdepth1(m) against hdepth1(S+ + m) for small polynomial rings.

The two columns agree for most small n; the first gap appears at n=6.
"""
from __future__ import annotations

import argparse
import sys

from sdepthlab.hilbert import herzog_question


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=12,
                    help="largest ambient dimension to tabulate, in [1, 12]")
    args = ap.parse_args(argv)
    if not 1 <= args.max_n <= 12:
        ap.error(f"--max-n {args.max_n} outside [1, 12]")

    print(f"{'n':>3}  {'hdepth1(m)':>11}  {'hdepth1(S+ + m)':>16}  equal")
    for n in range(1, args.max_n + 1):
        rec = herzog_question(n)
        mark = "yes" if rec["equal"] else "NO"
        print(f"{rec['n']:>3}  {rec['hdepth_m']:>11}  "
              f"{rec['hdepth_s_plus_m']:>16}  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

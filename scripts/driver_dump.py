#!/usr/bin/env python3
"""Dump every surgery-driver answer on a block of sampler seeds, as JSON lines.

For each seed in [first, last] the dump writes one line with the pair that
`sample_ml1_instance` draws at n (or null) and its candidate bs, then, per b,
one line with `ml1_driver(...).to_json()` (trace included) and the verdict of
`verify_outcome`, or the class and text of the exception the driver raised.
Two dumps of the same block compare byte for byte, so a refactor of the
driver can show that it keeps every answer:

    python scripts/driver_dump.py 6 0 39 | sha256sum
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from collections.abc import Iterator

from sdepthlab.fuzz import sample_ml1_instance
from sdepthlab.monomials import InputError
from sdepthlab.surgery import DriverFailure, ml1_driver, verify_outcome


def _line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def dump_lines(n: int, seeds) -> Iterator[str]:
    for seed in seeds:
        got = sample_ml1_instance(random.Random(seed), n=n)
        if got is None:
            yield _line({"seed": seed, "pair": None})
            continue
        Q, bs = got
        yield _line({
            "seed": seed,
            "pair": {"n": Q.ambient,
                     "I": [str(g) for g in Q.I.gens],
                     "J": [str(g) for g in Q.J.gens]},
            "bs": [str(b) for b in bs],
        })
        for b in bs:
            try:
                outcome = ml1_driver(Q, b)
            except (InputError, DriverFailure) as exc:
                yield _line({"b": str(b), "error": type(exc).__name__,
                             "message": str(exc)})
                continue
            yield _line({"b": str(b), "outcome": outcome.to_json(),
                         "verified": verify_outcome(Q, outcome)})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("n", type=int, help="ambient variables of the sampler")
    ap.add_argument("first", type=int, help="first sampler seed")
    ap.add_argument("last", type=int, help="last sampler seed (inclusive)")
    args = ap.parse_args(argv)
    for line in dump_lines(args.n, range(args.first, args.last + 1)):
        sys.stdout.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

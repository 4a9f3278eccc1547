#!/usr/bin/env python3
"""Check that the samplers' draw kernel replays `random.Random` on this Python.

`sdepthlab.fuzz` draws its pairs through `_Draws`, which reproduces the
stdlib's `randint`, `choice` and `sample` on `getrandbits`.  For each seed in
[0, seeds) this script makes the same mix of calls on two generators of that
seed, one through the kernel and one through the stdlib, and compares every
value and the generator state after every call.  It needs only the standard
library, so any supported interpreter can run it:

    PYTHONPATH=src python3 scripts/check_draws.py 3000

It prints the number of calls compared and exits 1 at the first mismatch.
"""
from __future__ import annotations

import argparse
import random
import sys

from sdepthlab.fuzz import _Draws

_CALLS_PER_SEED = 40


def check_seed(seed: int) -> int:
    """Compare one seed's calls; return their number, or raise AssertionError."""
    rng, ref = random.Random(seed), random.Random(seed)
    draw = _Draws(rng)
    plan = random.Random(~seed)  # picks the calls, and draws from neither
    for call in range(_CALLS_PER_SEED):
        kind = plan.randrange(3)
        size = plan.randint(1, 16)
        population = list(range(100, 100 + size))
        if kind == 0:
            a, b = plan.randint(-50, 50), plan.randint(0, 1 << plan.randint(0, 20))
            got, want = draw.randint(a, a + b), ref.randint(a, a + b)
        elif kind == 1:
            got, want = draw.choice(population), ref.choice(population)
        else:
            k = plan.randint(0, size)
            got, want = draw.sample(population, k), ref.sample(population, k)
        if got != want:
            raise AssertionError(f"seed {seed}, call {call}: the kernel drew "
                                 f"{got!r}, the stdlib {want!r}")
        if rng.getstate() != ref.getstate():
            raise AssertionError(f"seed {seed}, call {call}: both drew {got!r}, "
                                 "but the generator states differ")
    return _CALLS_PER_SEED


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("seeds", type=int, nargs="?", default=3000,
                    help="number of seeds to check (default 3000)")
    args = ap.parse_args(argv)
    try:
        calls = sum(check_seed(seed) for seed in range(args.seeds))
    except AssertionError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    print(f"{calls} calls on {args.seeds} seeds match random.Random "
          f"on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

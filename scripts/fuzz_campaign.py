#!/usr/bin/env python3
"""Run a long seeded fuzz campaign and print the summary report.

Defaults match the bulk consistency gate: 10^4 instances at n=6 with every
bound verdict and audit cross-checked per instance.  Use --out to keep the
per-instance JSONL stream for later replay.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from sdepthlab.fuzz import FuzzConfig, run_fuzz
from sdepthlab.monomials import InputError


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6, help="ambient variables")
    ap.add_argument("--count", type=int, default=10_000,
                    help="instances to generate")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--max-gens", type=int, default=5)
    ap.add_argument("--max-degree", type=int, default=3)
    ap.add_argument("--out", default=None,
                    help="write one JSON record per instance to this path")
    ap.add_argument("--findings", default=None,
                    help="write flagged observations to this path")
    args = ap.parse_args(argv)

    cfg = FuzzConfig(
        n=args.n,
        count=args.count,
        seed=args.seed,
        max_gens=args.max_gens,
        max_degree=args.max_degree,
        out=args.out,
        findings=args.findings,
    )
    try:
        cfg.validate()
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    t0 = time.perf_counter()
    report = run_fuzz(cfg)
    elapsed = time.perf_counter() - t0

    payload = report.to_json()
    payload["seconds"] = round(elapsed, 2)
    print(json.dumps(payload, indent=2))
    return 0 if report.inconsistent == 0 else 4


if __name__ == "__main__":
    sys.exit(main())

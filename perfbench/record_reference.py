#!/usr/bin/env python3
"""Record the stream workload's reference answers.

    python3 perfbench/record_reference.py

Runs every item of the stream pool once and writes, per pool index, the
answers `run.stream_answer` extracts (sdepth, depth in characteristics 0
and 2, hdepth1, d, r, s, q, |E|) to perfbench/stream_reference.json.  The
benchmark compares every stream item against this table, so re-record it
only when the pool itself changes.
"""
from __future__ import annotations

import json
import subprocess

import run


def main() -> None:
    spec = run.SPEC["stream"]
    wl = run.Stream(spec, reference=[])
    L = run.import_sdepthlab()
    answers = []
    for item in wl.build(L, spec["pool_size"]):
        values, inconsistent = wl.run(L, item)
        if inconsistent:
            raise SystemExit(f"{item.ident}: {inconsistent} inconsistencies")
        answers.append(values)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    payload = {
        "recorded_at_commit": commit,
        "pool_seed": spec["pool_seed"],
        "n": spec["n"],
        "fields": ["sdepth", "depth_char0", "depth_char2", "hdepth1",
                   "d", "r", "s", "q", "E_size"],
        "answers": answers,
    }
    path = run.HERE / spec["reference"]
    text = json.dumps(payload, separators=(",", ":"))
    path.write_text(text.replace("],[", "],\n[") + "\n", encoding="utf-8")
    print(f"wrote {len(answers)} answers to {path}")


if __name__ == "__main__":
    main()

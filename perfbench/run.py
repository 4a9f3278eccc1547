#!/usr/bin/env python3
"""Closed-loop benchmark of sdepthlab: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

Workloads (pools and sizes in perfbench/workloads.json):
  stream       the criterion-9 pipeline, `fuzz.run_instance` with a fresh
               EngineCache, on one seed-2026 n=6 pair per item;
  sdepth_hard  `sdepth` + `verify_partition` + `hdepth1` on one pair per
               item (maximal ideals m_5..m_8 and seed-99 pairs at n=8..10),
               under a per-item wall-clock cap;
  depth_wide   `depth` of one pair in one characteristic (0, 2, 3, 32003)
               per item, S/I and I/J pairs at n=12..16 plus S/I pairs at
               n=8, 9 that are cross-checked against the Reisner oracle;
  driver       one seed of the criterion-10 campaign per item:
               `sample_ml1_instance`, then `ml1_driver` and
               `verify_outcome` for every eligible b.

One client in one thread runs the items back to back: the next item starts
only after the previous one has finished.  A run makes passes over the
workload's fixed pool, each pass in an order drawn from --seed, until
--seconds have elapsed; the first pass is always whole.  The pools come from
fixed seeds so that stream answers can be compared with a table recorded
once (stream_reference.json) and the capped sdepth_hard items repeat
exactly.  The corpus golden values are checked before timing, and every
answer is checked; a failed check makes the exit code 1.

The host is shared: it takes the CPU away for whole ticks and slows it by
other tenants' load, by a third or more for seconds to minutes at a time.
So items are timed in thread CPU time, rescaled to reference seconds by the
speed of a fixed piece of reference work timed between items (hostspeed.py),
and each pool item's time is the median of its repeats in the run.  The
timing metrics are taken over those per-item times: items_per_s is the
pool's correct items divided by the sum of their times, item_p50_ms and
item_tail_ms (the workload's tail percentile, with at least ten items beyond
it) are percentiles over the pool.  setup_s is the median of repeated import
+ pool generation, in reference seconds too.  A capped item counts at the
cap, in wall seconds.  ok_share is the share of pool items correct in every
repeat (a capped item is not correct), and peak_rss_mb the process's peak
resident memory.  In the JSON line, `attempted` counts every item run and
`failed` the wrong answers and raised exceptions; capped items are listed by
name on the lines above it.

--trace 0 prints the end-to-end metrics.  --trace 1 makes one traced pass
(spans from tracer.py, written to perfbench/out/), runs every item untraced
next to its traced run to measure the tracing overhead, and prints the
per-layer metrics.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
from hostspeed import HostClock  # noqa: E402
from tracer import PER_LAYER, ItemCapped, Tracer, per_layer  # noqa: E402

MODULES = ("corpus", "depth", "engines", "fuzz", "hilbert", "monomials",
           "reisner", "sdepth", "surgery")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


def import_sdepthlab() -> SimpleNamespace:
    """The package's modules; callers look functions up at call time, so the
    tracer's patches apply."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{m: importlib.import_module(f"sdepthlab.{m}")
                              for m in MODULES})


def import_seconds_in_fresh_interpreter() -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.process_time(); import sdepthlab; "
            "print(time.process_time() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


@contextmanager
def capped(seconds: float):
    """Raise ItemCapped in the body once `seconds` of wall time have passed."""
    def _expire(signum, frame):
        raise ItemCapped()

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Item:
    ident: str
    payload: object


class Workload:
    cap: float | None = None

    def __init__(self, spec: dict):
        self.spec = spec

    def build(self, L, limit: int) -> list[Item]:
        raise NotImplementedError

    def run(self, L, item: Item):
        raise NotImplementedError

    def check(self, item: Item, answer) -> str | None:
        return None

    def check_run(self, L, pool: list[Item], answers: dict) -> dict[str, str]:
        """Cross-item checks on the first answer of each item; ident -> error."""
        return {}

    def summary(self, answers: list) -> str:
        return ""


class Stream(Workload):
    def __init__(self, spec: dict, reference: list | None = None):
        super().__init__(spec)
        if reference is None:
            path = HERE / spec["reference"]
            reference = json.loads(path.read_text(encoding="utf-8"))["answers"]
        self.reference = reference

    def build(self, L, limit):
        seed = self.spec["pool_seed"]
        self.cfg = L.fuzz.FuzzConfig(n=self.spec["n"], seed=seed)
        return [Item(f"seed={seed} index={i}",
                     (i, L.fuzz.random_pair(L.fuzz.instance_rng(seed, i), self.cfg)))
                for i in range(min(self.spec["pool_size"], limit))]

    def run(self, L, item):
        _, Q = item.payload
        record, _ = L.fuzz.run_instance(Q, self.cfg, cache=L.engines.EngineCache())
        return stream_answer(record), len(record["inconsistent"])

    def check(self, item, answer):
        values, inconsistent = answer
        if inconsistent:
            return f"{inconsistent} inconsistent verdicts or audit checks"
        expected = self.reference[item.payload[0]]
        if values != expected:
            return f"answers {values} differ from the reference {expected}"
        return None


def stream_answer(record: dict) -> list[int]:
    """sdepth, depth char 0, depth char 2, hdepth1, d, r, s, q, |E|."""
    st = record["strata"]
    return [record["sdepth"], record["depth"]["0"], record["depth"]["2"],
            record["hdepth"], st["d"], st["r"], st["s"], st["q"], st["E_size"]]


class SdepthHard(Workload):
    def __init__(self, spec: dict):
        super().__init__(spec)
        self.cap = spec["cap_s"]

    def build(self, L, limit):
        Ideal, Monomial = L.monomials.Ideal, L.monomials.Monomial
        items = []
        for n in self.spec["maximal_ideal_n"]:
            m = Ideal(n, [Monomial.of(i) for i in range(1, n + 1)])
            items.append(Item(f"m_{n}", (n, L.monomials.QuotientPair(m, Ideal(n)))))
        seed = self.spec["pool_seed"]
        for n in self.spec["random_n"]:
            cfg = L.fuzz.FuzzConfig(n=n, seed=seed, max_gens=self.spec["max_gens"],
                                    max_degree=self.spec["max_degree"])
            for i in range(self.spec["per_n"]):
                Q = L.fuzz.random_pair(L.fuzz.instance_rng(seed, i), cfg)
                items.append(Item(f"n={n} seed={seed} index={i}", (None, Q)))
        return items[:limit]

    def run(self, L, item):
        _, Q = item.payload
        with capped(self.cap):
            res = L.sdepth.sdepth(Q)
            verified = bool(L.sdepth.verify_partition(Q, res.certificate))
            hd = L.hilbert.hdepth1(L.hilbert.hilbert_series(Q)).value
        return res.value, res.certificate.sdepth_value, verified, hd

    def check(self, item, answer):
        value, cert_value, verified, hd = answer
        if not verified:
            return "certificate fails verify_partition"
        if cert_value != value:
            return f"certificate value {cert_value} != sdepth {value}"
        if value > hd:
            return f"sdepth {value} > hdepth1 {hd}"
        n = item.payload[0]
        if n is not None and value != (n + 1) // 2:
            return f"sdepth(m_{n}) = {value}, expected {(n + 1) // 2}"
        return None


class DepthWide(Workload):
    def build(self, L, limit):
        spec = self.spec
        rng = random.Random(spec["pool_seed"])
        pairs = []  # (label, pair, Stanley-Reisner ideal to cross-check, or None)
        for n in spec["reisner_n"]:
            for k in range(spec["reisner_pairs_per_n"]):
                Q = self._si_pair(L, rng, n)
                pairs.append((f"n={n} S/I #{k}", Q, Q.J))
        for n in spec["wide_n"]:
            for k in range(spec["si_per_n"]):
                pairs.append((f"n={n} S/I #{k}", self._si_pair(L, rng, n), None))
            cfg = L.fuzz.FuzzConfig(n=n, max_gens=spec["gens"],
                                    max_degree=spec["max_degree"])
            for k in range(spec["ij_per_n"]):
                pairs.append((f"n={n} I/J #{k}", L.fuzz.random_pair(rng, cfg), None))
        items = [Item(f"{label} char {c}", (label, Q, c, sr))
                 for label, Q, sr in pairs for c in spec["chars"]]
        return items[:limit]

    def _si_pair(self, L, rng, n):
        """S/I with `gens` random squarefree generators of degree 2..max_degree."""
        M = L.monomials
        gens = [M.Monomial.of(*rng.sample(range(1, n + 1),
                                          rng.randint(2, self.spec["max_degree"])))
                for _ in range(self.spec["gens"])]
        return M.QuotientPair(M.Ideal(n, [M.Monomial(0)]), M.Ideal(n, gens))

    def run(self, L, item):
        _, Q, c, _ = item.payload
        return L.depth.depth(Q, field=c).depth

    def check_run(self, L, pool, answers):
        errors = {}
        by_pair: dict[str, dict[int, Item]] = {}
        for item in pool:
            if item.ident in answers:
                by_pair.setdefault(item.payload[0], {})[item.payload[2]] = item
        for label, items in by_pair.items():
            if 0 in items:
                d0 = answers[items[0].ident]
                for c, item in items.items():
                    if answers[item.ident] > d0:
                        errors[item.ident] = (
                            f"depth {answers[item.ident]} in char {c} exceeds "
                            f"depth {d0} in char 0")
            for c, item in items.items():
                sr_ideal = item.payload[3]
                if sr_ideal is None:
                    continue
                oracle = L.reisner.reisner_depth_oracle(sr_ideal, field=c)
                if oracle != answers[item.ident]:
                    errors[item.ident] = (
                        f"Koszul depth {answers[item.ident]} != Reisner depth {oracle}")
        return errors


class Driver(Workload):
    def build(self, L, limit):
        first = self.spec["first_seed"]
        return [Item(f"seed={s}", s)
                for s in range(first, first + self.spec["seeds"])][:limit]

    def run(self, L, item):
        got = L.fuzz.sample_ml1_instance(random.Random(item.payload), n=self.spec["n"])
        runs = verified = fallbacks = 0
        if got is not None:
            Q, bs = got
            for b in bs:
                try:
                    outcome = L.surgery.ml1_driver(Q, b)
                except L.surgery.SurgeryError:
                    continue  # the reduced pair lacks the required partition
                runs += 1
                fallbacks += outcome.fallback
                verified += bool(L.surgery.verify_outcome(Q, outcome))
        return runs, verified, fallbacks

    def check(self, item, answer):
        runs, verified, _ = answer
        if verified != runs:
            return f"{runs - verified} of {runs} outcomes fail verify_outcome"
        return None

    def summary(self, answers):
        runs = sum(a[0] for a in answers)
        fallbacks = sum(a[2] for a in answers)
        return f"driver runs {runs}, fallbacks {fallbacks}"


WORKLOADS = {
    "stream": Stream,
    "sdepth_hard": SdepthHard,
    "depth_wide": DepthWide,
    "driver": Driver,
}


@dataclass
class Outcome:
    item: Item
    latency: float
    status: str          # "ok", "capped" or "failed"
    answer: object = None
    error: str | None = None
    start: float = 0.0


def run_passes(L, wl: Workload, pool: list[Item], seconds: float,
               rng: random.Random, clock: HostClock):
    """Passes over the pool, each in a fresh seeded order, until `seconds` have
    elapsed; the first pass is always whole, a later one stops where time runs
    out.  An item that hit the cap is not run again in the same run: it counts
    as capped, at the cap, in every later pass (the cap is chosen so that the
    capped set repeats exactly)."""
    outcomes: list[Outcome] = []
    capped_items: set[str] = set()
    start = time.perf_counter()
    first_pass = True
    while True:
        order = list(range(len(pool)))
        rng.shuffle(order)
        for i in order:
            if not first_pass and time.perf_counter() - start >= seconds:
                clock.sample()
                return outcomes, time.perf_counter() - start
            item = pool[i]
            if item.ident in capped_items:
                outcomes.append(Outcome(item, wl.cap, "capped"))
                continue
            clock.tick()
            outcome = run_item(L, wl, item, None)
            if outcome.status == "capped":
                capped_items.add(item.ident)
            outcomes.append(outcome)
        first_pass = False


def item_times(pool: list[Item], outcomes: list[Outcome],
               clock: HostClock | None) -> list[float]:
    """Each pool item's median time over its repeats, in reference seconds
    (in plain CPU seconds without a clock); a capped item counts at the cap."""
    times: dict[str, list[float]] = {}
    for o in outcomes:
        plain = clock is None or o.status == "capped"
        scale = 1.0 if plain else clock.scale(o.start)
        times.setdefault(o.item.ident, []).append(o.latency * scale)
    return [statistics.median(times[item.ident]) for item in pool]


def run_item(L, wl: Workload, item: Item, tracer: Tracer | None) -> Outcome:
    if tracer is not None:
        tracer.begin_item(item.ident)
    start, t0 = time.perf_counter(), time.thread_time()
    try:
        answer = wl.run(L, item)
    except ItemCapped:
        return Outcome(item, wl.cap, "capped", start=start)
    except Exception:  # an item that raises is a failed item; keep measuring
        return Outcome(item, time.thread_time() - t0, "failed",
                       error=traceback.format_exc(limit=-3).strip(), start=start)
    latency = time.thread_time() - t0
    error = wl.check(item, answer)
    return Outcome(item, latency, "failed" if error else "ok", answer, error, start)


def gate_run(L, wl: Workload, pool: list[Item], outcomes: list[Outcome]) -> None:
    """Repeated items must repeat their answer; then the cross-item checks."""
    first: dict[str, object] = {}
    for o in outcomes:
        if o.status != "ok":
            continue
        if o.item.ident not in first:
            first[o.item.ident] = o.answer
        elif first[o.item.ident] != o.answer:
            o.status, o.error = "failed", (
                f"answer {o.answer} differs from an earlier pass: {first[o.item.ident]}")
    errors = wl.check_run(L, pool, first)
    for o in outcomes:
        if o.status == "ok" and o.item.ident in errors:
            o.status, o.error = "failed", errors[o.item.ident]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def corpus_gate(L) -> None:
    report = L.corpus.run_corpus()
    if not report.ok:
        for check in report.failures():
            print(f"corpus check failed: {check.to_json()}", file=sys.stderr)
        raise SystemExit("corpus golden values do not hold; nothing timed")


def report_outcomes(name: str, outcomes: list[Outcome], wl: Workload) -> None:
    failed = [o for o in outcomes if o.status == "failed"]
    capped = sorted({o.item.ident for o in outcomes if o.status == "capped"})
    print(f"{name}: {len(outcomes)} items, {len(failed)} failed, "
          f"{sum(o.status == 'capped' for o in outcomes)} capped")
    for ident in capped:
        print(f"  capped at {wl.cap} s: {ident}")
    for o in failed[:20]:
        print(f"  FAILED {o.item.ident}: {o.error}")
    extra = wl.summary([o.answer for o in outcomes if o.status == "ok"])
    if extra:
        print(f"  {extra}")


def result_line(outcomes: list[Outcome], metrics: dict) -> dict:
    failed = sum(o.status == "failed" for o in outcomes)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


def measure(name: str, seed: int, seconds: float, limit: int) -> dict:
    wl = WORKLOADS[name](SPEC[name])
    clock = HostClock()
    clock.sample()
    setup_start, t0 = time.perf_counter(), time.thread_time()
    L = import_sdepthlab()
    imports = [time.thread_time() - t0]
    corpus_gate(L)
    # an import happens once per process, so the other samples import in
    # fresh interpreters; setup_s is the median of the repeated set-ups
    imports += [import_seconds_in_fresh_interpreter()
                for _ in range(SETUP_REPEATS - 1)]
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.thread_time()
        pool = wl.build(L, limit)
        builds.append(time.thread_time() - t0)
    clock.sample()
    setup_s = statistics.median(a + b for a, b in zip(imports, builds))

    outcomes, wall = run_passes(L, wl, pool, seconds, random.Random(seed), clock)
    gate_run(L, wl, pool, outcomes)
    report_outcomes(name, outcomes, wl)
    times = item_times(pool, outcomes, clock)
    not_ok = {o.item.ident for o in outcomes if o.status != "ok"}
    ok_items = sum(item.ident not in not_ok for item in pool)
    pct = SPEC[name]["tail_percentile"]
    values = {
        "setup_s": setup_s * clock.scale(setup_start),
        "items_per_s": ok_items / sum(times),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_tail_ms": percentile(times, pct) * 1e3,
        "ok_share": ok_items / len(pool),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    plain = item_times(pool, outcomes, None)
    print(f"  {len(outcomes) / len(pool):.2f} passes of {len(pool)} items in "
          f"{wall:.2f} s; tail is p{pct} of {len(pool)} items; failed_share "
          f"(capped included) {1 - values['ok_share']:.4f}")
    print(f"  host speed {clock.speed():.3f} of a quiet host ({len(clock.seconds)} "
          f"reference samples); in plain CPU seconds: setup_s {setup_s:.6g}, "
          f"items_per_s {ok_items / sum(plain):.6g}, item_p50_ms "
          f"{statistics.median(plain) * 1e3:.6g}, item_tail_ms "
          f"{percentile(plain, pct) * 1e3:.6g}")
    if name == "stream":
        print(f"  {1000 / values['items_per_s']:.2f} reference s per 1000 items")
    for key, unit in END_TO_END.items():
        print(f"  {key:<14} {values[key]:.6g} {unit}")
    return result_line(outcomes, {k: {"value": v, "unit": END_TO_END[k]}
                                  for k, v in values.items()})


def measure_traced(name: str, seed: int, limit: int) -> dict:
    wl = WORKLOADS[name](SPEC[name])
    L = import_sdepthlab()
    corpus_gate(L)
    tracer = Tracer()
    with tracer.installed():
        tracer.begin_item("setup")
        pool = wl.build(L, limit)
    order = list(range(len(pool)))
    random.Random(seed).shuffle(order)
    # one pass; every item also runs untraced right next to its traced run,
    # alternating which goes first, so the overhead ratio sees the same
    # machine state on both sides
    outcomes, traced_s, plain_s = [], 0.0, 0.0
    for k, i in enumerate(order):
        if k % 2:
            plain = run_item(L, wl, pool[i], None)
        with tracer.installed():
            traced = run_item(L, wl, pool[i], tracer)
        if not k % 2:
            plain = run_item(L, wl, pool[i], None)
        outcomes.append(traced)
        if "capped" not in (traced.status, plain.status):
            traced_s += traced.latency
            plain_s += plain.latency
    with tracer.installed():
        tracer.begin_item("check")
        gate_run(L, wl, pool, outcomes)
    report_outcomes(name, outcomes, wl)
    values = per_layer(tracer.spans)
    values["trace.overhead_ratio"] = traced_s / plain_s if plain_s else 1.0

    path = OUT / f"trace-{name}-seed{seed}.jsonl.gz"
    tracer.write(path)
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for key, (unit, _) in PER_LAYER.items():
        print(f"  {key:<36} {values[key]:.6g} {unit}")
    return result_line(outcomes, {k: {"value": values[k], "unit": unit}
                                  for k, (unit, _) in PER_LAYER.items()})


def run_all(args) -> int:
    """Each workload in its own process, so peak memory and imports stay apart."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--pool-limit", str(args.pool_limit)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        if lines and proc.returncode in (0, 1):
            results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1, help="orders the passes")
    ap.add_argument("--seconds", type=float, default=28.0,
                    help="measured time; the first pass is always finished")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool-limit", type=int, default=1 << 30,
                    help="use only the first N pool items (smoke tests)")
    args = ap.parse_args(argv)
    if not (SRC / "sdepthlab" / "__init__.py").is_file():
        print(f"sdepthlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.pool_limit)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.pool_limit)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

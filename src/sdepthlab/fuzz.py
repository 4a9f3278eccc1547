"""Seeded random-instance stream for the bound and audit machinery.

Every instance is generated from an RNG derived only from (seed, index), so
a record replays bit-for-bit from its header.  Each instance runs the full
pipeline — strata, Stanley depth, depth over characteristic 0 and 2, the
bound verdicts, the exact-sequence audit — and, when the two-generator
surgery hypotheses hold, the rewriting driver with independent re-checks.

Inconsistent verdicts are collected in the main JSONL log (they fail the
run); Stanley-positivity observations and driver anomalies go to a separate
findings log, since those would be discoveries rather than bugs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .engines import EngineCache
from .monomials import Ideal, InputError, Monomial, QuotientPair, canonical_key
from .poset import _filter_bitset
from .surgery import (
    DriverFailure,
    SurgeryError,
    ml1_candidate_bs,
    ml1_driver,
    verify_outcome,
)
from .verdicts import (
    bounds_report,
    consistency_audit,
    inconsistencies,
    stanley_observation,
)

_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class FuzzConfig:
    n: int = 5
    count: int = 100
    seed: int = 0
    max_gens: int = 5
    max_degree: int = 3
    j_rate: float = 0.6
    max_j_picks: int = 4
    poset_budget: int = 4096
    ml1_max_runs: int = 4
    audit_chars: tuple[int, ...] = (0, 2)
    out: str | None = None
    findings: str | None = None

    def validate(self) -> None:
        if not 1 <= self.n <= 8:
            raise InputError(
                f"fuzz ambient n={self.n} outside the supported range [1, 8]"
            )
        if self.count < 0:
            raise InputError("count must be nonnegative")
        if not 1 <= self.max_degree <= self.n:
            raise InputError("max_degree must lie in [1, n]")


def instance_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * _SEED_STRIDE + index)


def random_pair(rng: random.Random, cfg: FuzzConfig) -> QuotientPair:
    n = cfg.n
    k = rng.randint(1, cfg.max_gens)
    gens = []
    for _ in range(k):
        deg = rng.randint(1, cfg.max_degree)
        vars_ = rng.sample(range(1, n + 1), deg)
        gens.append(Monomial.of(*vars_))
    I = Ideal(n, gens)
    d = min(g.degree for g in I.gens)

    J = Ideal(n)
    if rng.random() < cfg.j_rate:
        pool = _upper_elements(I, d)
        if pool:
            picks = rng.randint(1, cfg.max_j_picks)
            J = Ideal(n, [Monomial(rng.choice(pool)) for _ in range(picks)])
    return QuotientPair(I, J)


def _upper_elements(I: Ideal, d: int) -> list[int]:
    """Masks of elements of I with degree in [d+1, d+2] (J candidates)."""
    out = []
    for mask in range(1, 1 << I.ambient):
        deg = mask.bit_count()
        if d + 1 <= deg <= d + 2 and I.member_mask(mask):
            out.append(mask)
    return out


def _pair_json(Q: QuotientPair) -> dict:
    return {"n": Q.ambient,
            "I": [str(g) for g in Q.I.gens],
            "J": [str(g) for g in Q.J.gens]}


def _ml1_entries(Q: QuotientPair, cfg: FuzzConfig, findings: list[dict]) -> list[dict]:
    entries: list[dict] = []
    for b in ml1_candidate_bs(Q)[: cfg.ml1_max_runs]:
        entry: dict = {"b": str(b)}
        try:
            outcome = ml1_driver(Q, b)
        except SurgeryError as exc:
            entry["status"] = "hypothesis_unsatisfied"
            entry["reason"] = str(exc)
            entries.append(entry)
            continue
        except DriverFailure as exc:
            entry["status"] = "driver_failure"
            entry["reason"] = str(exc)
            findings.append({
                "kind": "ml1_driver_failure",
                "pair": _pair_json(Q),
                "b": str(b),
                "trace": list(exc.trace),
            })
            entries.append(entry)
            continue
        verified = verify_outcome(Q, outcome)
        entry.update({
            "status": "ok",
            "kind": outcome.kind,
            "fallback": outcome.fallback,
            "verified": verified,
        })
        if outcome.fallback or not verified:
            findings.append({
                "kind": "ml1_driver_anomaly",
                "pair": _pair_json(Q),
                "b": str(b),
                "fallback": outcome.fallback,
                "verified": verified,
                "trace": list(outcome.trace),
            })
        entries.append(entry)
    return entries


def run_instance(Q: QuotientPair, cfg: FuzzConfig,
                 cache: EngineCache | None = None) -> tuple[dict, list[dict]]:
    """Full pipeline on one pair; returns (record, findings)."""
    cache = cache or EngineCache()
    findings: list[dict] = []
    st = cache.strata(Q)
    sres = cache.sdepth(Q)
    depths = {str(c): cache.depth(Q, field=c).depth for c in (0, 2)}
    record: dict = {
        "instance": _pair_json(Q),
        "strata": {"d": st.d, "r": st.r, "s": st.s, "q": st.q,
                   "E_size": len(st.E)},
        "sdepth": sres.value,
        "depth": depths,
        "hdepth": cache.hdepth(Q).value,
    }
    bad: list[dict] = []
    verdicts_json: list[dict] = []
    for char in cfg.audit_chars:
        Qc = Q.with_field(char)
        verdicts = bounds_report(Qc, cache=cache)
        audit = consistency_audit(Qc, cache=cache)
        for item in inconsistencies(verdicts, audit):
            payload = item.to_json()
            payload["char"] = char
            bad.append(payload)
        if char == Q.field:
            verdicts_json = [v.to_json() for v in verdicts]
        obs = stanley_observation(Qc, cache=cache)
        if obs is not None:
            findings.append(obs)
    record["verdicts"] = verdicts_json
    record["inconsistent"] = bad
    record["ml1"] = _ml1_entries(Q, cfg, findings)
    record["findings_count"] = len(findings)
    return record, findings


@dataclass
class FuzzReport:
    config: FuzzConfig
    instances: int = 0
    skipped: int = 0
    inconsistent: int = 0
    findings: int = 0
    ml1_runs: int = 0
    ml1_ok: int = 0
    records: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "n": self.config.n,
            "count": self.config.count,
            "seed": self.config.seed,
            "instances": self.instances,
            "skipped": self.skipped,
            "inconsistent": self.inconsistent,
            "findings": self.findings,
            "ml1_runs": self.ml1_runs,
            "ml1_ok": self.ml1_ok,
        }


def run_fuzz(cfg: FuzzConfig, keep_records: bool = False) -> FuzzReport:
    cfg.validate()
    report = FuzzReport(config=cfg)
    out_fh = open(cfg.out, "w", encoding="utf-8") if cfg.out else None
    find_fh = open(cfg.findings, "w", encoding="utf-8") if cfg.findings else None
    try:
        for index in range(cfg.count):
            rng = instance_rng(cfg.seed, index)
            Q = random_pair(rng, cfg)
            header = {"seed": cfg.seed, "index": index}
            cache = EngineCache()
            if cache.poset_bits(Q).bit_count() > cfg.poset_budget:
                record = dict(header)
                record.update({
                    "instance": _pair_json(Q),
                    "skipped": "poset budget exceeded",
                })
                report.skipped += 1
            else:
                body, findings = run_instance(Q, cfg, cache=cache)
                record = dict(header)
                record.update(body)
                report.instances += 1
                report.inconsistent += len(record["inconsistent"])
                report.findings += len(findings)
                for entry in record["ml1"]:
                    if entry["status"] != "hypothesis_unsatisfied":
                        report.ml1_runs += 1
                        if entry.get("verified"):
                            report.ml1_ok += 1
                if find_fh:
                    for f in findings:
                        payload = dict(header)
                        payload.update(f)
                        find_fh.write(json.dumps(payload, sort_keys=True) + "\n")
            if out_fh:
                out_fh.write(json.dumps(record, sort_keys=True) + "\n")
            if keep_records:
                report.records.append(record)
    finally:
        if out_fh:
            out_fh.close()
        if find_fh:
            find_fh.close()
    return report


def sample_ml1_instance(rng: random.Random, n: int = 6,
                        max_tries: int = 400) -> tuple[QuotientPair, tuple] | None:
    """Search for a pair satisfying the two-generator surgery hypotheses.

    Construction: two degree-d generators sharing d-1 variables (so their
    lcm sits in B), optional degree-(d+1) extra generators, and a J built
    from the degree-(d+2) elements violating the C-containment condition,
    topped up with random picks.  Returns (pair, eligible bs).

    Each try is screened on masks before any pair is built, and the screen
    is exact.  r = 2 and "E in degree d+1" hold by construction.  J is 0 or
    generated in degree d+2, so the pair carries no normalization warning,
    B is the degree-(d+1) layer of I, and C is the degree-(d+2) layer minus
    J's generators.  Killing the violators leaves the other elements of C
    meeting the containment condition, so the final pair has none.  That
    leaves 4 <= s <= q+2, which the screen reads off the masks; a try that
    passes it becomes a QuotientPair and `ml1_candidate_bs` re-checks every
    hypothesis.
    """
    for _ in range(max_tries):
        d = rng.randint(1, 2)
        common = rng.sample(range(1, n + 1), d - 1) if d > 1 else []
        rest = [v for v in range(1, n + 1) if v not in common]
        x_a, x_b = rng.sample(rest, 2)
        f1 = Monomial.of(*(common + [x_a]))
        f2 = Monomial.of(*(common + [x_b]))
        gens = [f1, f2]
        for _ in range(rng.randint(0, 2)):
            deg = d + 1
            vars_ = rng.sample(range(1, n + 1), deg)
            e = Monomial.of(*vars_)
            if not (f1.divides(e) or f2.divides(e)):
                gens.append(e)
        # r = 2 by construction: f1 != f2 have degree d, the extras degree d+1
        I = Ideal(n, gens)
        kills, picks, s, q = _containment_closure(I, d, rng)
        if not 4 <= s <= q + 2:
            continue
        Q = QuotientPair(I, Ideal._of_masks(n, kills + picks))
        bs = ml1_candidate_bs(Q)
        if bs:
            return Q, bs
    return None


def _containment_closure(I: Ideal, d: int, rng: random.Random
                         ) -> tuple[list[int], list[int], int, int]:
    """For I/0 with least degree d: the masks of the C-elements breaking
    containment (kills), up to two random other elements of C (picks), and
    s and q of the pair I/J with J generated by kills and picks."""
    n = I.ambient
    gens = I.gen_masks()
    once = _filter_bitset(n, gens)
    # c lies above two generators exactly when it lies above their lcm
    twice = _filter_bitset(n, tuple({a | b for a, b in combinations(gens, 2)}))
    B = [m for m in _degree_masks(n, d + 1) if once >> m & 1]
    C = [m for m in _degree_masks(n, d + 2) if once >> m & 1]
    kills = [c for c in C if not twice >> c & 1]
    pool = [c for c in C if twice >> c & 1]
    picks = []
    for _ in range(rng.randint(0, 2)):
        if pool:
            picks.append(rng.choice(pool))
    # J lies in degree d+2, so it leaves B alone and removes its own
    # generators from C
    return kills, picks, len(B), len(C) - len(set(kills + picks))


@cache
def _degree_masks(n: int, k: int) -> tuple[int, ...]:
    """The degree-k masks of n variables, in canonical order."""
    return tuple(sorted((m for m in range(1 << n) if m.bit_count() == k),
                        key=canonical_key))

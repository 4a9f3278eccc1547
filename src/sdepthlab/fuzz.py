"""Seeded random-instance stream for the bound and audit machinery.

Every instance is generated from an RNG derived only from (seed, index), so
a record replays bit-for-bit from its header.  Each instance runs the full
pipeline — strata, Stanley depth, depth over characteristic 0 and 2, the
bound verdicts and the exact-sequence audit.  The verdicts and audit run in
characteristic 0; they run again in characteristic 2 only for an instance
where some module they read has a different depth there, and otherwise
their characteristic-0 inconsistencies are recorded for characteristic 2
too (`run_instance` says why this is exact).  `FuzzReport.char2_passes`
counts the instances that needed the second pass.  The surgery driver is not
run here: `sample_ml1_instance` draws its instances.

Inconsistent verdicts are collected in the main JSONL log (they fail the
run); Stanley-positivity observations go to a separate findings log, since
those would be discoveries rather than bugs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations

from .engines import EngineCache
from .monomials import (
    MAX_AMBIENT,
    Ideal,
    InputError,
    Monomial,
    QuotientPair,
    canonical_key,
    mask_of,
)
from .poset import degree_bits, filter_bitset, members
from .surgery import ml1_candidate_bs
from .verdicts import (
    bounds_report,
    consistency_audit,
    inconsistencies,
    stanley_observation,
)

_SEED_STRIDE = 1_000_003
_J_RATE = 0.6             # share of pairs that get a nonzero J
_MAX_J_PICKS = 4          # most elements drawn into J
_AUDIT_CHARS = (0, 2)     # characteristics of the record's depths and audit


@dataclass(frozen=True)
class FuzzConfig:
    n: int = 5
    count: int = 100
    seed: int = 0
    max_gens: int = 5
    max_degree: int = 3
    out: str | None = None
    findings: str | None = None

    def validate(self) -> None:
        if not 1 <= self.n <= 8:
            raise InputError(
                f"fuzz ambient n={self.n} outside the supported range [1, 8]"
            )
        if self.count < 0:
            raise InputError("count must be nonnegative")
        if self.max_gens < 1:
            raise InputError("max_gens must be at least 1")
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
    d = min(m.bit_count() for m in I.gen_masks())

    J = Ideal(n)
    if rng.random() < _J_RATE:
        pool = _upper_elements(I, d)
        if pool:
            picks = rng.randint(1, _MAX_J_PICKS)
            J = Ideal(n, [Monomial(rng.choice(pool)) for _ in range(picks)])
    return QuotientPair(I, J)


def _upper_elements(I: Ideal, d: int) -> list[int]:
    """Masks of elements of I with degree in [d+1, d+2] (J candidates), ascending."""
    n = I.ambient
    layers = degree_bits(n, d + 1) | degree_bits(n, d + 2)
    return members(filter_bitset(n, I.gen_masks()) & layers)


def run_instance(Q: QuotientPair, cfg: FuzzConfig,
                 cache: EngineCache | None = None) -> tuple[dict, list[dict]]:
    """Full pipeline on one pair; returns (record, findings).

    `cfg` is the configuration of the stream that drew Q; no field of it
    changes the record.  It lists the verdicts of characteristic 0.

    The verdicts and audit run in characteristic 0, and again in
    characteristic 2 only when the cache then holds a module whose
    characteristic-2 depth differs from its characteristic-0 depth; else
    the characteristic-0 inconsistencies stand for characteristic 2 too.
    This is exact.  Every verdict and audit check is a function of the
    strata, Stanley depth and hdepth1 of the modules it reads, none of
    which depends on the field, and of their depths.  Which modules they
    read (Q, its derived pairs and its subideal split) does not depend on
    any depth either, so the characteristic-2 pass reads the same modules.
    Their characteristic-0 depths are all in the cache after the first
    pass, each with its characteristic-2 twin from the same Koszul walk
    (`DepthResult.gf2`).  Where every twin agrees, the second pass would
    rebuild the same verdicts and checks.  `stanley_observation` runs in
    each characteristic, since its finding names the field.
    """
    cache = cache or EngineCache()
    findings: list[dict] = []
    st = cache.strata(Q)
    sres = cache.sdepth(Q)
    depths = {str(c): cache.depth(Q, c).depth for c in _AUDIT_CHARS}
    # E_size counts Q's own generators of I above degree d, some of which
    # may lie in J, as `perfbench/stream_reference.json` records it until
    # ROADMAP item 1 records it again
    E_size = sum(m.bit_count() > st.d for m in Q.I.gen_masks())
    record: dict = {
        "instance": {"n": Q.ambient,
                     "I": [str(g) for g in Q.I.gens],
                     "J": [str(g) for g in Q.J.gens]},
        "strata": {"d": st.d, "r": st.r, "s": st.s, "q": st.q,
                   "E_size": E_size},
        "sdepth": sres.value,
        "depth": depths,
        "hdepth": cache.hdepth(Q).value,
    }
    verdicts = bounds_report(Q, cache=cache, field=0)
    found = inconsistencies(verdicts, consistency_audit(Q, cache=cache, field=0))
    bad = [dict(item.to_json(), char=0) for item in found]
    if not cache.depths_agree(0, 2):
        found = inconsistencies(bounds_report(Q, cache=cache, field=2),
                                consistency_audit(Q, cache=cache, field=2))
    bad += [dict(item.to_json(), char=2) for item in found]
    for char in _AUDIT_CHARS:
        obs = stanley_observation(Q, cache=cache, field=char)
        if obs is not None:
            findings.append(obs)
    record["verdicts"] = [v.to_json() for v in verdicts]
    record["inconsistent"] = bad
    record["findings_count"] = len(findings)
    return record, findings


@dataclass
class FuzzReport:
    config: FuzzConfig
    instances: int = 0
    inconsistent: int = 0
    findings: int = 0
    # instances whose verdicts and audit ran again in characteristic 2,
    # because some module they read has a characteristic-dependent depth
    char2_passes: int = 0

    def to_json(self) -> dict:
        return {
            "n": self.config.n,
            "count": self.config.count,
            "seed": self.config.seed,
            "instances": self.instances,
            "inconsistent": self.inconsistent,
            "findings": self.findings,
            "char2_passes": self.char2_passes,
        }


def run_fuzz(cfg: FuzzConfig) -> FuzzReport:
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
            body, findings = run_instance(Q, cfg, cache=cache)
            record = dict(header)
            record.update(body)
            report.instances += 1
            report.char2_passes += not cache.depths_agree(0, 2)
            report.inconsistent += len(record["inconsistent"])
            report.findings += len(findings)
            if find_fh:
                for f in findings:
                    payload = dict(header)
                    payload.update(f)
                    find_fh.write(json.dumps(payload, sort_keys=True) + "\n")
            if out_fh:
                out_fh.write(json.dumps(record, sort_keys=True) + "\n")
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
    topped up with random picks.  Returns (pair, eligible bs).  n must lie
    in [3, MAX_AMBIENT]: the construction draws two variables outside d-1
    common ones, and d+1 of them for an extra.

    Each try is screened on masks before any object is built, and the
    screen is exact.  r = 2 and "E in degree d+1" hold by construction: f1
    and f2 are distinct of degree d, and an extra is kept only when neither
    divides it, so the distinct generators drawn are the minimal ones.  J
    is 0 or generated in degree d+2, so the pair carries no normalization
    warning, B is the degree-(d+1) layer of I, and C is the degree-(d+2)
    layer minus J's generators.  Killing the violators leaves the other
    elements of C meeting the containment condition, so the final pair has
    none.  That leaves 4 <= s <= q+2, which the screen reads off popcounts;
    a try that passes it becomes a QuotientPair and `ml1_candidate_bs`
    re-checks every hypothesis.
    """
    if not 3 <= n <= MAX_AMBIENT:
        raise InputError(
            f"ml1 sampler ambient n={n} outside the supported range [3, {MAX_AMBIENT}]"
        )
    filters = _PrincipalFilters(n)
    for _ in range(max_tries):
        d = rng.randint(1, 2)
        common = rng.sample(range(1, n + 1), d - 1) if d > 1 else []
        rest = [v for v in range(1, n + 1) if v not in common]
        x_a, x_b = rng.sample(rest, 2)
        f1 = mask_of(common + [x_a])
        f2 = mask_of(common + [x_b])
        extras = []
        for _ in range(rng.randint(0, 2)):
            e = mask_of(rng.sample(range(1, n + 1), d + 1))
            if f1 & ~e and f2 & ~e:
                extras.append(e)
        gens = (f1, f2, *dict.fromkeys(extras))
        kills, picks, s, q = _containment_closure(n, gens, d, rng, filters)
        if not 4 <= s <= q + 2:
            continue
        J = members(kills) + picks
        Q = QuotientPair(Ideal._of_masks(n, gens), Ideal._of_masks(n, J))
        bs = ml1_candidate_bs(Q)
        if bs:
            return Q, bs
    return None


class _PrincipalFilters(dict):
    """mask -> bitset of its principal filter {x : mask ⊆ x} over n
    variables, computed on first lookup."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, mask: int) -> int:
        bits = self[mask] = filter_bitset(self.n, (mask,))
        return bits


def _containment_closure(n: int, gens: tuple[int, ...], d: int,
                         rng: random.Random, filters: _PrincipalFilters
                         ) -> tuple[int, list[int], int, int]:
    """For I/0, I generated by `gens` in degrees d and d+1: the bitset of
    the C-elements breaking containment (kills), up to two random other
    elements of C (picks), and s and q of the pair I/J with J generated by
    kills and picks.  `filters` is shared by the tries of one sampler call."""
    once = 0
    for g in gens:
        once |= filters[g]
    # c lies above two generators exactly when it lies above their lcm
    twice = 0
    for a, b in combinations(gens, 2):
        twice |= filters[a | b]
    C = once & degree_bits(n, d + 2)
    kills, pool_bits = C & ~twice, C & twice
    picks = []
    count = rng.randint(0, 2)
    if count and pool_bits:
        pool = sorted(members(pool_bits), key=canonical_key)
        picks = [rng.choice(pool) for _ in range(count)]
    # J lies in degree d+2, so it leaves B alone and removes its own
    # generators from C
    killed = kills
    for c in picks:
        killed |= 1 << c
    s = (once & degree_bits(n, d + 1)).bit_count()
    return kills, picks, s, C.bit_count() - killed.bit_count()

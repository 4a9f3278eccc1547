"""Named upper/lower bound rules and cross-engine consistency audits.

Each rule evaluates a hypothesis on the degree strata of a pair and, when the
hypothesis holds, asserts a bound on depth or Stanley depth.  The engines
compute the exact values independently, so every applicable rule is a live
consistency check: a violated bound means a bug somewhere, and callers treat
it as a hard failure.

Counting rules come in two flavours.  The Stanley-depth flavour is proved by
pure interval counting inside the poset, so it holds for any pair; it uses
the number of degree-d poset elements rather than the generator count.  The
depth flavour relies on the normalization assumptions (J generated in degrees
> d), so it is gated on an input pair's `normalization_warning`; the
colons, restrictions and splits derived from it are PosetViews in that
normal form (`poset.view_of`).  Only depth depends on the field, whose
characteristic the entry points take.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import eq, ge, le

from .engines import EngineCache
from .monomials import Monomial, QuotientPair
from .poset import PosetView, StrataReport, layer_counts, poset_view

# depth of the zero module, for Depth-Lemma arithmetic on short exact sequences
INF_DEPTH = 10**9


@dataclass(frozen=True)
class Verdict:
    rule: str
    applicable: bool
    hypothesis: str
    quantity: str | None = None
    relation: str | None = None
    bound: int | None = None
    observed: int | None = None
    detail: dict = dc_field(default_factory=dict)

    @property
    def consistent(self) -> bool | None:
        """Whether `observed relation bound` holds; None when not applicable."""
        if not self.applicable:
            return None
        return {"<=": le, ">=": ge, "==": eq}[self.relation](self.observed, self.bound)

    def to_json(self) -> dict:
        out = {
            "rule": self.rule,
            "applicable": self.applicable,
            "hypothesis": self.hypothesis,
        }
        if self.applicable:
            out["claim"] = f"{self.quantity} {self.relation} {self.bound}"
            out["observed"] = self.observed
            out["consistent"] = self.consistent
        if self.detail:
            out["detail"] = self.detail
        return out


def _support_escape(st: StrataReport) -> Monomial | None:
    union = 0
    for f in st.f_list:
        union |= f.mask
    for c in st.C:
        if c.mask & ~union:
            return c
    return None


def _conjecture_case(st: StrataReport) -> str | None:
    """Which proved case of the minimal-sdepth conjecture covers this pair."""
    if st.r <= 3:
        return f"r={st.r}"
    if st.r == 4 and not st.E and _support_escape(st) is not None:
        return "r=4 with support escape"
    return None


def bounds_report(
    Q: QuotientPair, cache: EngineCache | None = None, field: int = 0
) -> tuple[Verdict, ...]:
    """Every bound rule on Q, with depth over characteristic `field`."""
    cache = cache if cache is not None else EngineCache()
    st = cache.strata(Q)
    sv = cache.sdepth(Q).value
    dep = cache.depth(Q, field).depth
    hd = cache.hdepth(Q).value
    warn = Q.normalization_warning
    d, r, s, q = st.d, st.r, st.s, st.q
    # the degree-d poset elements: the degree-d generators outside J
    rp = len(poset_view(Q).layer(d))
    out = []

    out.append(
        Verdict(
            "depth_ge_min_degree",
            True,
            f"least poset degree d={d}",
            "depth",
            ">=",
            d,
            dep,
        )
    )
    out.append(
        Verdict(
            "sdepth_ge_min_degree",
            True,
            f"least poset degree d={d}",
            "sdepth",
            ">=",
            d,
            sv,
        )
    )
    # sdepth() stops its search at hdepth1, so this rule holds by
    # construction; the unpruned search at hdepth1 + 1 checks the bound in
    # tests/test_hilbert.py::test_hdepth_dominates_sdepth and
    # tests/test_sdepth.py::test_hdepth1_refutations_hold_unpruned.
    out.append(
        Verdict(
            "sdepth_le_hilbert_depth",
            True,
            "Stanley decompositions refine Hilbert decompositions",
            "sdepth",
            "<=",
            hd,
            sv,
        )
    )

    # pure counting in the poset: a partition of value >= d+2 forces
    # s >= 2*(#degree-d elements) and s <= q + (#degree-d elements).
    # These are the k = d+2 case of the Hilbert-depth test in hilbert.py,
    # on the layer counts (r', s, q) of degrees d, d+1, d+2:
    # β_{d+1}^{d+2} = s - 2r' and β_{d+2}^{d+2} = q - s + r'.  So when
    # d+2 <= n, one of the two rules applies iff hdepth1 <= d+1, and they
    # restate `sdepth_le_hilbert_depth` there.  Their names stay, because
    # the fuzz JSONL records them.
    out.append(
        Verdict(
            "b_count_exceeds_c_plus_r_sdepth",
            s > q + rp,
            f"s={s} > q+r'={q}+{rp}",
            "sdepth",
            "<=",
            d + 1,
            sv,
            detail={"degree_d_elements": rp},
        )
    )
    out.append(
        Verdict(
            "b_count_below_2r_sdepth",
            s < 2 * rp,
            f"s={s} < 2r'={2 * rp}",
            "sdepth",
            "<=",
            d + 1,
            sv,
            detail={"degree_d_elements": rp},
        )
    )

    out.append(
        Verdict(
            "b_count_exceeds_c_plus_r",
            not warn and s > q + r,
            f"s={s} > q+r={q}+{r}" + (" [skipped: low-degree relations]" if warn else ""),
            "depth",
            "<=",
            d + 1,
            dep,
        )
    )
    out.append(
        Verdict(
            "b_count_below_2r",
            not warn and s < 2 * r,
            f"s={s} < 2r={2 * r}" + (" [skipped: low-degree relations]" if warn else ""),
            "depth",
            "<=",
            d + 1,
            dep,
        )
    )

    out.append(
        Verdict(
            "sdepth_eq_min_forces_depth",
            not warn and sv == d,
            f"sdepth={sv}, d={d}",
            "depth",
            "==",
            d,
            dep,
        )
    )

    conj_small = r == 1 or (1 < r <= 3 and not st.E)
    out.append(
        Verdict(
            "conjecture_small_cases",
            not warn and sv == d + 1 and conj_small,
            f"sdepth={sv}=d+1, r={r}, |E|={len(st.E)}",
            "depth",
            "<=",
            d + 1,
            dep,
        )
    )
    out.append(
        Verdict(
            "three_generators_step",
            not warn and sv == d + 1 and r <= 3,
            f"sdepth={sv}=d+1, r={r}",
            "depth",
            "<=",
            d + 1,
            dep,
        )
    )
    escape = _support_escape(st)
    out.append(
        Verdict(
            "four_generators_step",
            not warn and sv == d + 1 and r == 4 and not st.E and escape is not None,
            f"sdepth={sv}=d+1, r={r}, |E|={len(st.E)}, escape={escape}",
            "depth",
            "<=",
            d + 1,
            dep,
        )
    )

    wb_or_e = {m.mask for m in st.W_B} | {m.mask for m in st.E}
    covered = all(b.mask in wb_or_e for b in st.B)
    out.append(
        Verdict(
            "cover_by_lcms_depth_one",
            not warn and d == 1 and covered,
            f"d={d}, B inside E union pairwise lcms: {covered}",
            "depth",
            "==",
            1,
            dep,
        )
    )

    # every degree-d divisor of every b must itself be a generator; at d = 0
    # (I = (1)) the only such divisor is 1, so the rule says nothing there
    f_masks = {f.mask for f in st.f_list}
    closed = not st.E
    if closed:
        for b in st.B:
            t = b.mask
            while t:
                low = t & -t
                if (b.mask ^ low) not in f_masks:
                    closed = False
                    break
                t ^= low
            if not closed:
                break
    out.append(
        Verdict(
            "all_low_divisors_generate",
            not warn and d >= 1 and closed,
            f"|E|={len(st.E)}, all degree-d divisors of B are generators: {closed}",
            "depth",
            "==",
            d,
            dep,
        )
    )

    out.extend(_colon_restriction_rules(Q, cache, dep))
    return tuple(out)


def _colon_restriction_rules(
    Q: QuotientPair, cache: EngineCache, dep: int
) -> list[Verdict]:
    """Count B and C inside each variable restriction I∩(x_t)/J∩(x_t).

    When the restricted pair has more degree-(d_t+1) elements than
    C-count plus degree-d_t count, its sdepth is at most d_t+1 by counting.
    The counts are the restriction's layer counts; its strata are built
    only when the count fires.
    If on top of that the restriction falls in a proved conjecture case, its
    depth is at most d_t+1 as well, and localization monotonicity carries
    that bound back to the original pair.  No gate applies: a restriction
    is in normal form, or is Q itself, whose case implies that of its
    normal form (the generators of Q outside J).
    """
    out: list[Verdict] = []
    fired = False
    for t, (_, Ut, _) in enumerate(cache.derived_pairs(Q), 1):
        if Ut is None:
            continue
        d_t = poset_view(Ut).d
        rp_t, s_t, q_t = (layer_counts(Ut) + [0, 0])[d_t:d_t + 3]
        if s_t <= q_t + rp_t:
            continue
        fired = True
        sv_t = cache.sdepth(Ut).value
        detail = {
            "t": t,
            "d_t": d_t,
            "s_t": s_t,
            "q_t": q_t,
            "degree_d_elements": rp_t,
        }
        out.append(
            Verdict(
                "colon_restriction_count",
                True,
                f"t={t}: s_t={s_t} > q_t+r'_t={q_t}+{rp_t}",
                "sdepth(restriction)",
                "<=",
                d_t + 1,
                sv_t,
                detail=detail,
            )
        )
        case = _conjecture_case(cache.strata(Ut))
        chain_ok = sv_t <= d_t + 1 and case is not None
        out.append(
            Verdict(
                "colon_restriction_depth",
                chain_ok,
                f"t={t}: restricted sdepth={sv_t}<=d_t+1={d_t + 1}, case {case}",
                "depth",
                "<=",
                d_t + 1,
                dep,
                detail=detail,
            )
        )
    if not fired:
        out.append(
            Verdict(
                "colon_restriction_count",
                False,
                "no variable restriction satisfies s_t > q_t + r'_t",
            )
        )
    return out


def stanley_observation(Q: QuotientPair, cache: EngineCache | None = None,
                        field: int = 0) -> dict | None:
    """Report a pair whose Stanley depth drops below its depth over
    characteristic `field`, if any.

    Such a pair would refute the positivity question these bounds orbit, so
    it is surfaced as a finding for manual scrutiny rather than an error.
    """
    cache = cache if cache is not None else EngineCache()
    sv = cache.sdepth(Q).value
    dep = cache.depth(Q, field).depth
    if sv >= dep:
        return None
    return {
        "kind": "sdepth_below_depth",
        "pair": str(Q),
        "field": field,
        "sdepth": sv,
        "depth": dep,
    }


@dataclass(frozen=True)
class AuditCheck:
    name: str
    param: str
    ok: bool | None          # None: hypothesis not applicable, nothing checked
    values: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "param": self.param, "ok": self.ok, **(
            {"values": self.values} if self.values else {})}


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[AuditCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok is not False for c in self.checks)

    def failures(self) -> tuple[AuditCheck, ...]:
        return tuple(c for c in self.checks if c.ok is False)

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def _depth_of(cache: EngineCache, M: QuotientPair | PosetView | None, field: int) -> int:
    return INF_DEPTH if M is None else cache.depth(M, field).depth


def _sequence_checks(
    name: str, param: str, dA: int, dB: int, dC: int
) -> list[AuditCheck]:
    def show(x: int):
        return "inf" if x >= INF_DEPTH else x

    values = {"first": show(dA), "middle": show(dB), "last": show(dC)}
    out = []
    out.append(
        AuditCheck(
            f"{name}_first", param, dA >= min(dB, dC + 1), values
        )
    )
    out.append(AuditCheck(f"{name}_middle", param, dB >= min(dA, dC), values))
    out.append(AuditCheck(f"{name}_last", param, dC >= min(dA - 1, dB), values))
    return out


def consistency_audit(Q: QuotientPair, cache: EngineCache | None = None,
                      field: int = 0) -> AuditReport:
    """Exercise the exact-sequence and localization inequalities on a pair,
    with every depth over characteristic `field`.

    Every check compares quantities computed by the exact engines, so a
    failure is a defect, not a property of the input.
    """
    cache = cache if cache is not None else EngineCache()
    checks: list[AuditCheck] = []
    dB = cache.depth(Q, field).depth

    derived = cache.derived_pairs(Q)
    for j, (cp, _, _) in enumerate(derived, 1):
        if cp is None:
            checks.append(AuditCheck("colon_depth_monotone", f"j={j}", None))
            continue
        dA = cache.depth(cp, field).depth
        checks.append(
            AuditCheck(
                "colon_depth_monotone",
                f"j={j}",
                dA >= dB,
                {"colon_depth": dA, "depth": dB},
            )
        )

    for t, (A, _, C) in enumerate(derived, 1):
        param = f"t={t}"
        dA = _depth_of(cache, A, field)
        dC = _depth_of(cache, C, field)
        checks.extend(_sequence_checks("colon_sequence", param, dA, dB, dC))
        if dC < INF_DEPTH and dB >= dC + 1:
            checks.append(
                AuditCheck(
                    "colon_bound_step",
                    param,
                    dB == dC + 1,
                    {"depth": dB, "quotient_by_restriction": dC},
                )
            )
        else:
            checks.append(AuditCheck("colon_bound_step", param, None))

    st = cache.strata(Q)
    if st.E:
        A, C = cache.subideal_split(Q)
        dA = _depth_of(cache, A, field)
        dC = _depth_of(cache, C, field)
        sub = ", ".join(str(f) for f in st.f_list)
        checks.extend(
            _sequence_checks("subideal_sequence", f"I'={sub}", dA, dB, dC)
        )

    return AuditReport(tuple(checks))


def inconsistencies(verdicts: tuple[Verdict, ...], audit: AuditReport | None = None):
    bad = [v for v in verdicts if v.consistent is False]
    if audit is not None:
        bad.extend(audit.failures())
    return tuple(bad)

"""Embedded worked examples with frozen golden values.

Each item is stored in the plain input format (so the corpus also exercises
the parser) together with the values the engines must reproduce.  `run_corpus`
replays every assertion and reports mismatches; the batch CLI turns any
mismatch into exit code 4.

The `pp2` item is the 6-vertex triangulation of the real projective plane,
whose quotient depth famously depends on the coefficient characteristic.
"""
from __future__ import annotations

from dataclasses import dataclass

from .engines import EngineCache
from .hilbert import herzog_question
from .io import parse_input
from .monomials import Monomial, QuotientPair, minimalize, parse_monomial
from .poset import split_pair
from .reisner import reisner_depth_oracle
from .surgery import build_h, build_reduced_pair, find_paths
from .verdicts import bounds_report

ITEMS: dict[str, str] = {
    # five quadratic generators where every degree-3 element of the poset is
    # a pairwise lcm, yet depth stays at 3
    "ex3": (
        "n=5\n"
        "I = x1*x2, x1*x3, x2*x3, x1*x4, x3*x5\n"
        "J = x1*x2*x5, x1*x4*x5, x2*x3*x4, x3*x4*x5\n"
    ),
    # the lcm of all three generators has a degree-3 divisor in B that is
    # not a pairwise lcm
    "ex": (
        "n=4\n"
        "I = x1*x2, x2*x3, x3*x4\n"
        "J = 0\n"
    ),
    # three quadratics plus one cubic extra generator; sdepth 3 is forced
    "ex1": (
        "n=5\n"
        "I = x1*x2, x1*x3, x1*x4, x2*x3*x5\n"
        "J = x2*x3*x4*x5\n"
    ),
    # four generators where both variable restrictions push depth down
    "eex1": (
        "n=5\n"
        "I = x2*x3, x1*x2, x3*x4, x3*x5\n"
        "J = x1*x2*x4*x5\n"
    ),
    # the surgery showcase: r=3, d=1, witness subideal (b, E)
    "bad": (
        "n=6\n"
        "I = x1, x2, x3, x4*x5, x5*x6\n"
        "J = x2*x4, x3*x4, x1*x6, x2*x6, x3*x6\n"
    ),
    # 6-vertex real projective plane, Stanley-Reisner form S/I
    "pp2": (
        "n=6\n"
        "I = 1\n"
        "J = x1*x2*x4, x1*x2*x5, x1*x3*x5, x1*x3*x6, x1*x4*x6, "
        "x2*x3*x4, x2*x3*x6, x2*x5*x6, x3*x4*x5, x4*x5*x6\n"
    ),
}

EXPECTED: dict[str, dict] = {
    "ex3": {
        "d": 2,
        "r": 5,
        "B": ("x1*x2*x3", "x1*x2*x4", "x1*x3*x4", "x1*x3*x5", "x2*x3*x5"),
        "depth_char0": 3,
        "depth_char2": 3,
        "missing_low_divisor": ("x1*x2*x4", "x2*x4"),  # b in B, divisor not in I
    },
    "ex": {
        "d": 2,
        "r": 3,
        "c": "x1*x2*x3*x4",
        "b": "x1*x2*x4",  # divides c, lies in B, not a pairwise lcm
    },
    "ex1": {
        "strata": (2, 3, 7, 4),  # (d, r, s, q)
        "E_size": 1,
        "C": ("x1*x2*x3*x4", "x1*x2*x3*x5", "x1*x2*x4*x5", "x1*x3*x4*x5"),
        "sdepth": 3,
        "depth": 3,
        "overlap_offender": "x1*x2*x4",  # from the non-disjoint attempt
    },
    "eex1": {
        "B_cap_x1": (
            "x1*x2*x3", "x1*x2*x4", "x1*x2*x5", "x1*x3*x4", "x1*x3*x5",
        ),
        "B_cap_x4_size": 4,  # the printed 5 double-counts x2*x3*x5
        "C_cap_x1_size": 3,
        "C_cap_x4_size": 3,
        "depth_upper": 3,
        "restriction_t": 1,
    },
    "bad": {
        "strata": (1, 3, 9, 6),
        "E": ("x4*x5", "x5*x6"),
        "B": (
            "x1*x2", "x1*x3", "x1*x4", "x1*x5", "x2*x3",
            "x2*x5", "x3*x5", "x4*x5", "x5*x6",
        ),
        "C": (
            "x1*x2*x3", "x1*x2*x5", "x1*x3*x5", "x1*x4*x5",
            "x2*x3*x5", "x4*x5*x6",
        ),
        "sdepth": 2,
        "depth": 2,
        "surgery_b": "x1*x4",
        "weak_path": ("x1*x5", "x2*x5"),
        "witness": ("x1*x4", "x4*x5", "x5*x6"),
    },
    "pp2": {
        "depth_char0": 3,
        "depth_char2": 2,
    },
    "herzog": {
        "equal_ns": (1, 2, 3, 4, 5, 7, 9, 11),
        "n6": (3, 4),  # hdepth1(m), hdepth1(S + m)
    },
}

# the value-3 partition of the reduced pair, as listed for the showcase
BAD_PB_INTERVALS: tuple[tuple[str, str], ...] = (
    ("x2", "x1*x2*x3"),
    ("x3", "x1*x3*x5"),
    ("x1*x5", "x1*x2*x5"),
    ("x2*x5", "x2*x3*x5"),
    ("x4*x5", "x1*x4*x5"),
    ("x5*x6", "x4*x5*x6"),
)


def pair(name: str) -> QuotientPair:
    return parse_input(ITEMS[name])


@dataclass(frozen=True)
class GoldenCheck:
    item: str
    name: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_json(self) -> dict:
        return {
            "item": self.item,
            "name": self.name,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class CorpusReport:
    checks: tuple[GoldenCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[GoldenCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def _strs(monos) -> tuple[str, ...]:
    return tuple(str(m) for m in sorted(monos, key=Monomial.sort_key))


def _check_ex3(exp: dict, cache: EngineCache) -> list[GoldenCheck]:
    Q = pair("ex3")
    st = cache.strata(Q)
    b, div = (parse_monomial(t) for t in exp["missing_low_divisor"])
    return [
        GoldenCheck("ex3", "d", exp["d"], st.d),
        GoldenCheck("ex3", "r", exp["r"], st.r),
        GoldenCheck("ex3", "B", exp["B"], _strs(st.B)),
        GoldenCheck("ex3", "depth_char0", exp["depth_char0"],
                    cache.depth(Q, field=0).depth),
        GoldenCheck("ex3", "depth_char2", exp["depth_char2"],
                    cache.depth(Q, field=2).depth),
        GoldenCheck("ex3", "every b is a pairwise lcm", True,
                    all(m in st.W_B for m in st.B)),
        GoldenCheck("ex3", "b has a degree-d divisor outside I", (True, False),
                    (b in st.B, Q.I.member(div))),
    ]


def _check_ex(exp: dict, cache: EngineCache) -> list[GoldenCheck]:
    Q = pair("ex")
    st = cache.strata(Q)
    c = parse_monomial(exp["c"])
    b = parse_monomial(exp["b"])
    lcm_all = Monomial(st.f_list[0].mask | st.f_list[1].mask | st.f_list[2].mask)
    return [
        GoldenCheck("ex", "d", exp["d"], st.d),
        GoldenCheck("ex", "r", exp["r"], st.r),
        GoldenCheck("ex", "c is the lcm of all generators", c, lcm_all),
        GoldenCheck("ex", "c in C", True, c in st.C),
        GoldenCheck("ex", "b divides c", True, b.divides(c)),
        GoldenCheck("ex", "b in B", True, b in st.B),
        GoldenCheck("ex", "b not a pairwise lcm", False, b in st.W_B),
        GoldenCheck("ex", "c not in C3", False, c in st.C3),
    ]


def _check_ex1(exp: dict, cache: EngineCache) -> list[GoldenCheck]:
    from .sdepth import Interval, Partition, sdepth_decide, verify_partition

    Q = pair("ex1")
    st = cache.strata(Q)
    sres = cache.sdepth(Q)
    checks = [
        GoldenCheck("ex1", "strata", exp["strata"], (st.d, st.r, st.s, st.q)),
        GoldenCheck("ex1", "E_size", exp["E_size"], len(st.E)),
        GoldenCheck("ex1", "C", exp["C"], _strs(st.C)),
        GoldenCheck("ex1", "sdepth", exp["sdepth"], sres.value),
        GoldenCheck("ex1", "no value-4 partition", None, sdepth_decide(Q, 4)),
        GoldenCheck("ex1", "depth", exp["depth"], cache.depth(Q).depth),
    ]
    # the paper's non-disjoint attempt: {[a,c1],[f1,c],[f2,c2],[f3,c3]}
    iv = lambda lo, hi: Interval(parse_monomial(lo), parse_monomial(hi))
    attempt = Partition((
        iv("x2*x3*x5", "x1*x2*x3*x5"),
        iv("x1*x2", "x1*x2*x3*x4"),
        iv("x1*x3", "x1*x3*x4*x5"),
        iv("x1*x4", "x1*x2*x4*x5"),
    ))
    vr = verify_partition(Q, attempt)
    checks.append(GoldenCheck(
        "ex1", "overlap_offender",
        (False, "monomial doubly covered", exp["overlap_offender"]),
        (vr.ok, vr.reason, str(vr.offender)),
    ))
    # the r<=3 step of the main theorem must fire and hold
    rules = {v.rule: v for v in bounds_report(Q, cache=cache)}
    v = rules["three_generators_step"]
    checks.append(GoldenCheck(
        "ex1", "three_generators_step",
        (True, True), (v.applicable, bool(v.consistent)),
    ))
    return checks


def _check_eex1(exp: dict, cache: EngineCache) -> list[GoldenCheck]:
    Q = pair("eex1")
    st = cache.strata(Q)
    x1, x4 = Monomial.of(1), Monomial.of(4)
    b1 = [m for m in st.B if x1.divides(m)]
    b4 = [m for m in st.B if x4.divides(m)]
    c1 = [m for m in st.C if x1.divides(m)]
    c4 = [m for m in st.C if x4.divides(m)]
    checks = [
        GoldenCheck("eex1", "B_cap_x1", exp["B_cap_x1"], _strs(b1)),
        GoldenCheck("eex1", "B_cap_x4_size", exp["B_cap_x4_size"], len(b4)),
        GoldenCheck("eex1", "C_cap_x1_size", exp["C_cap_x1_size"], len(c1)),
        GoldenCheck("eex1", "C_cap_x4_size", exp["C_cap_x4_size"], len(c4)),
    ]
    rules = [v for v in bounds_report(Q, cache=cache)
             if v.rule == "colon_restriction_count" and v.applicable]
    fired_t = sorted(v.detail["t"] for v in rules)
    checks.append(GoldenCheck(
        "eex1", "restriction count fires at t", [exp["restriction_t"]], fired_t
    ))
    depth_rules = [v for v in bounds_report(Q, cache=cache)
                   if v.rule == "colon_restriction_depth" and v.applicable]
    checks.append(GoldenCheck(
        "eex1", "restriction depth bound",
        (True, True),
        (len(depth_rules) >= 1,
         all(v.bound == exp["depth_upper"] and v.consistent
             for v in depth_rules)),
    ))
    checks.append(GoldenCheck(
        "eex1", "depth_upper", True,
        cache.depth(Q).depth <= exp["depth_upper"],
    ))
    return checks


def _check_bad(exp: dict, cache: EngineCache) -> list[GoldenCheck]:
    from .sdepth import Interval, Partition, sdepth_decide

    Q = pair("bad")
    st = cache.strata(Q)
    checks = [
        GoldenCheck("bad", "strata", exp["strata"], (st.d, st.r, st.s, st.q)),
        GoldenCheck("bad", "E", exp["E"], _strs(st.E)),
        GoldenCheck("bad", "B", exp["B"], _strs(st.B)),
        GoldenCheck("bad", "C", exp["C"], _strs(st.C)),
        GoldenCheck("bad", "sdepth", exp["sdepth"], cache.sdepth(Q).value),
        GoldenCheck("bad", "depth", exp["depth"], cache.depth(Q).depth),
    ]
    b = parse_monomial(exp["surgery_b"])
    listed = Partition(tuple(
        Interval(parse_monomial(lo), parse_monomial(hi))
        for lo, hi in BAD_PB_INTERVALS
    ))
    H = build_h(Q, b, listed)
    checks.append(GoldenCheck(
        "bad", "reduced-pair partition value", 3, H.partition.sdepth_value
    ))
    start = parse_monomial(exp["weak_path"][0])
    search = find_paths(H, start)
    wanted = tuple(parse_monomial(t) for t in exp["weak_path"])
    found = [p for p in search.paths if p.elements == wanted]
    checks.append(GoldenCheck(
        "bad", "weak path classification",
        (1, True, False, True),
        (len(found), found[0].weak if found else None,
         found[0].bad if found else None,
         found[0].maximal if found else None),
    ))
    # the witness subideal: small Stanley depth, complement keeps depth d+1
    I_w = minimalize(Q.ambient, [parse_monomial(t) for t in exp["witness"]])
    sub, rest = split_pair(Q, I_w)
    checks.append(GoldenCheck(
        "bad", "witness sdepth <= 2",
        (None, True),
        (sdepth_decide(sub, 3), cache.sdepth(sub).value <= 2),
    ))
    checks.append(GoldenCheck(
        "bad", "complement depth >= 2", True, cache.depth(rest).depth >= 2
    ))
    return checks


def _check_pp2(exp: dict, cache: EngineCache) -> list[GoldenCheck]:
    Q = pair("pp2")
    oracle0 = reisner_depth_oracle(Q.J, field=0)
    oracle2 = reisner_depth_oracle(Q.J, field=2)
    return [
        GoldenCheck("pp2", "depth_char0", exp["depth_char0"],
                    cache.depth(Q, field=0).depth),
        GoldenCheck("pp2", "depth_char2", exp["depth_char2"],
                    cache.depth(Q, field=2).depth),
        GoldenCheck("pp2", "oracle_char0", exp["depth_char0"], oracle0),
        GoldenCheck("pp2", "oracle_char2", exp["depth_char2"], oracle2),
    ]


def _check_herzog(exp: dict) -> list[GoldenCheck]:
    checks = []
    for n in exp["equal_ns"]:
        rec = herzog_question(n)
        checks.append(GoldenCheck("herzog", f"n={n} equal", True, rec["equal"]))
    rec = herzog_question(6)
    checks.append(GoldenCheck(
        "herzog", "n=6 values", exp["n6"],
        (rec["hdepth_m"], rec["hdepth_s_plus_m"]),
    ))
    return checks


def run_corpus(expected: dict | None = None,
               cache: EngineCache | None = None) -> CorpusReport:
    exp = EXPECTED if expected is None else expected
    cache = cache or EngineCache()
    checks: list[GoldenCheck] = []
    checks += _check_ex3(exp["ex3"], cache)
    checks += _check_ex(exp["ex"], cache)
    checks += _check_ex1(exp["ex1"], cache)
    checks += _check_eex1(exp["eex1"], cache)
    checks += _check_bad(exp["bad"], cache)
    checks += _check_pp2(exp["pp2"], cache)
    checks += _check_herzog(exp["herzog"])
    return CorpusReport(tuple(checks))

"""Acceptance gate: one test per release criterion, timed and summarized.

Each test runs inside the `criterion` context manager from helpers, which
records PASS/FAIL and wall time; conftest prints one line per criterion at
the end of the run.  Budgets are asserted where the criterion pins one.
"""
from __future__ import annotations

import random

from helpers import CRITERIA, brute_poset_masks, criterion, si_pair
from sdepthlab.corpus import BAD_PB_INTERVALS, ITEMS
from sdepthlab.depth import depth
from sdepthlab.engines import EngineCache
from sdepthlab.fuzz import (
    FuzzConfig,
    instance_rng,
    random_pair,
    run_fuzz,
    sample_ml1_instance,
)
from sdepthlab.hilbert import herzog_question
from sdepthlab.io import parse_input
from sdepthlab.monomials import (
    Ideal,
    Monomial,
    QuotientPair,
    ideal_sum,
    intersect,
    minimalize,
    parse_monomial,
)
from sdepthlab.poset import poset_bitset, strata
from sdepthlab.reisner import reisner_depth_oracle
from sdepthlab.sdepth import (
    Interval,
    Partition,
    brute_force_sdepth,
    sdepth,
    sdepth_decide,
)
from sdepthlab.surgery import (
    DriverFailure,
    SurgeryError,
    build_h,
    find_paths,
    ml1_driver,
    verify_outcome,
)
from sdepthlab.verdicts import bounds_report

CRITERIA.update({
    1: "five-quadric pair has depth 3 over char 0 and char 2 (budget 1 s)",
    2: "forced-value pair: strata (2,3,7,4), sdepth 3 with 4 refuted, "
       "depth 3, r<=3 step consistent (budget 5 s)",
    3: "variable-restriction counting: B/C layers inside (x1) and (x4), "
       "depth bounded by 3",
    4: "full-lcm pair: a degree-3 divisor lies in B outside the pairwise lcms",
    5: "surgery showcase: listed partition, injection, weak path, witness "
       "subideal, exact sdepth/depth 2",
    6: "Hilbert-depth comparison equal for n in {1..5,7,9,11}, gap (3,4) "
       "at n=6 (budget 10 s)",
    7: "triangulated projective plane: depth 3 (char 0) vs 2 (char 2) by "
       "two independent engines",
    8: "500 solver-vs-oracle Stanley depths and 500 Koszul-vs-link depths "
       "agree on seeded streams",
    9: "10^4 seeded instances at n=6 with zero inconsistent verdicts "
       "(budget 30 min)",
    10: "surgery driver verified on >= 50 sampled hypothesis-satisfying "
        "instances",
})


def test_criterion_01_char_stable_depth():
    with criterion(1, budget=1.0):
        Q = parse_input(ITEMS["ex3"])
        for char in (0, 2):
            assert depth(Q, field=char).depth == 3


def test_criterion_02_forced_value_pair():
    with criterion(2, budget=5.0):
        Q = parse_input(ITEMS["ex1"])
        st = strata(Q)
        assert (st.d, st.r, st.s, st.q) == (2, 3, 7, 4)
        res = sdepth(Q)
        assert res.value == 3 and res.refuted_k == 4
        assert sdepth_decide(Q, 4) is None
        assert depth(Q, 0).depth == 3
        v = next(v for v in bounds_report(Q)
                 if v.rule == "three_generators_step")
        assert v.applicable and v.consistent is True


def test_criterion_03_restriction_counting():
    with criterion(3) as entry:
        Q = parse_input(ITEMS["eex1"])
        st = strata(Q)
        x1, x4 = Monomial.of(1), Monomial.of(4)
        b1 = sorted((m for m in st.B if x1.divides(m)), key=Monomial.sort_key)
        assert [str(m) for m in b1] == [
            "x1*x2*x3", "x1*x2*x4", "x1*x2*x5", "x1*x3*x4", "x1*x3*x5",
        ]
        b4 = [m for m in st.B if x4.divides(m)]
        # the printed count of 5 double-lists x2*x3*x5, which carries no x4;
        # the actual layer has 4 elements and the stray element is x4-free
        assert len(b4) == 4
        stray = parse_monomial("x2*x3*x5")
        assert stray in st.B and not x4.divides(stray)
        assert sum(1 for m in st.C if x1.divides(m)) == 3
        assert sum(1 for m in st.C if x4.divides(m)) == 3
        dep = depth(Q, 0).depth
        assert dep <= 3
        v = [v for v in bounds_report(Q)
             if v.rule == "colon_restriction_depth" and v.applicable]
        assert v and all(x.bound == 3 and x.consistent for x in v)
        entry["detail"] = f"depth={dep}"


def test_criterion_04_divisor_outside_pairwise_lcms():
    with criterion(4):
        Q = parse_input(ITEMS["ex"])
        st = strata(Q)
        c = parse_monomial("x1*x2*x3*x4")
        b = parse_monomial("x1*x2*x4")
        assert c in st.C
        assert b.divides(c)
        assert b in st.B
        assert b not in st.W_B


def test_criterion_05_surgery_showcase():
    with criterion(5):
        Q = parse_input(ITEMS["bad"])
        b = parse_monomial("x1*x4")
        listed = Partition(tuple(
            Interval(parse_monomial(lo), parse_monomial(hi))
            for lo, hi in BAD_PB_INTERVALS
        ))
        H = build_h(Q, b, listed)
        assert H.partition.sdepth_value == 3
        assert H.to_json()["mapping"] == {
            "x2": "x1*x2*x3",
            "x3": "x1*x3*x5",
            "x1*x5": "x1*x2*x5",
            "x2*x5": "x2*x3*x5",
            "x4*x5": "x1*x4*x5",
            "x5*x6": "x4*x5*x6",
        }
        start = parse_monomial("x1*x5")
        search = find_paths(H, start)
        wanted = (start, parse_monomial("x2*x5"))
        hits = [p for p in search.paths if p.elements == wanted]
        assert len(hits) == 1
        assert hits[0].maximal and hits[0].weak and not hits[0].bad

        I_w = minimalize(6, [parse_monomial(t)
                             for t in ("x1*x4", "x4*x5", "x5*x6")])
        sub = QuotientPair(I_w, intersect(Q.J, I_w))
        assert sdepth_decide(sub, 3) is None
        assert sdepth(sub).value <= 2
        rest = QuotientPair(Q.I, ideal_sum(Q.J, I_w))
        assert depth(rest, 0).depth >= 2

        assert sdepth(Q).value == 2
        assert depth(Q, 0).depth == 2


def test_criterion_06_hilbert_depth_comparison():
    with criterion(6, budget=10.0):
        equal_ns = {1, 2, 3, 4, 5, 7, 9, 11}
        for n in range(1, 12):
            assert herzog_question(n)["equal"] == (n in equal_ns)
        rec = herzog_question(6)
        assert (rec["hdepth_m"], rec["hdepth_s_plus_m"]) == (3, 4)


def test_criterion_07_characteristic_dependence():
    with criterion(7):
        Q = parse_input(ITEMS["pp2"])
        expected = {0: 3, 2: 2}
        for char, value in expected.items():
            assert depth(Q, field=char).depth == value
            assert reisner_depth_oracle(Q.J, field=char) == value


def test_criterion_08_cross_engine_streams():
    with criterion(8) as entry:
        cfg = FuzzConfig(n=5, count=1, seed=0, max_gens=4, max_degree=4)
        checked = 0
        idx = 0
        while checked < 500:
            Q = random_pair(instance_rng(12345, idx), cfg)
            idx += 1
            if poset_bitset(Q).bit_count() > 12:
                continue
            assert sdepth(Q).value == brute_force_sdepth(Q)
            checked += 1

        rng = random.Random(777)
        for _ in range(500):
            n = rng.randint(2, 5)
            gens = [Monomial(rng.randint(1, (1 << n) - 1))
                    for _ in range(rng.randint(1, 4))]
            I = Ideal(n, gens)
            for char in (0, 2):
                assert depth(si_pair(I), char).depth == \
                    reisner_depth_oracle(I, field=char)
        entry["detail"] = f"scanned {idx} instances for the sdepth half"


def test_criterion_09_bulk_stream_consistency():
    with criterion(9, budget=1800.0) as entry:
        report = run_fuzz(FuzzConfig(n=6, count=10_000, seed=2026))
        assert report.instances == 10_000
        assert report.inconsistent == 0
        entry["detail"] = (
            f"instances={report.instances} findings={report.findings}"
        )


def test_criterion_10_driver_campaign():
    with criterion(10) as entry:
        satisfied = 0
        failures = []
        seed = 0
        while satisfied < 50 and seed < 200:
            got = sample_ml1_instance(random.Random(seed), n=6)
            seed += 1
            if got is None:
                continue
            Q, bs = got
            d = strata(Q).d
            for b in bs:
                try:
                    outcome = ml1_driver(Q, b)
                except SurgeryError:
                    continue  # reduced pair lacks the required partition
                except DriverFailure as exc:
                    failures.append((Q, b, exc))
                    # the dichotomy must still hold by direct computation
                    assert (
                        sdepth_decide(Q, d + 2) is not None
                        or depth(Q, 0).depth <= d + 1
                    )
                    continue
                assert verify_outcome(Q, outcome)
                satisfied += 1
        assert satisfied >= 50
        entry["detail"] = (
            f"{satisfied} verified runs from {seed} seeds, "
            f"{len(failures)} driver failures"
        )


def test_acceptance_support_oracle_sanity():
    """The poset membership oracle used above agrees with the bit engine."""
    Q = parse_input(ITEMS["ex1"])
    bits = poset_bitset(Q)
    assert sorted(brute_poset_masks(Q)) == [
        m for m in range(1 << Q.ambient) if (bits >> m) & 1
    ]

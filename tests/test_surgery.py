from __future__ import annotations

import hashlib
import random
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CASE_BAD_PATH,
    CASE_TRAIL_REVISIT,
    CASE_WEAK_PATH,
    as_pair,
    containment_kills_one_at_a_time,
    from_strs,
)
from sdepthlab import fuzz, surgery
from sdepthlab.corpus import BAD_PB_INTERVALS, ITEMS
from sdepthlab.fuzz import sample_ml1_instance
from sdepthlab.hilbert import colon_refuter
from sdepthlab.io import parse_input
from sdepthlab.monomials import (
    Ideal,
    InputError,
    Monomial,
    QuotientPair,
    canonical_key,
    intersect,
    minimalize,
    parse_monomial,
)
from sdepthlab.poset import interval_bits, poset_view, strata
from sdepthlab.sdepth import Interval, Partition, sdepth_decide, verify_partition
from sdepthlab.surgery import (
    DriverFailure,
    SurgeryError,
    SurgeryOutcome,
    _bfs,
    _truncated_cover,
    build_h,
    build_reduced_pair,
    check_pair_hypotheses,
    containment_violators,
    find_paths,
    ml1_candidate_bs,
    ml1_driver,
    normalize_partition,
    rotate,
    swap_into_generator,
    verify_outcome,
)


def _bad_setup():
    Q = parse_input(ITEMS["bad"])
    b = parse_monomial("x1*x4")
    listed = Partition(tuple(
        Interval(parse_monomial(lo), parse_monomial(hi))
        for lo, hi in BAD_PB_INTERVALS
    ))
    return Q, b, listed


def test_build_reduced_pair():
    Q, b, _ = _bad_setup()
    pair_b = as_pair(build_reduced_pair(Q, b))
    assert pair_b.I == from_strs(6, "x2", "x3", "x1*x5", "x4*x5", "x5*x6")
    assert not pair_b.I.member(b)
    assert pair_b.J == intersect(Q.J, pair_b.I)
    with pytest.raises(SurgeryError, match="not a degree"):
        build_reduced_pair(Q, Monomial.of(6))
    with pytest.raises(SurgeryError, match="exactly one least-degree generator"):
        build_reduced_pair(Q, parse_monomial("x1*x2"))


@given(st.data())
@settings(max_examples=60)
def test_truncated_cover_partitions_low_part(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    lo = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    extra = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    hi = lo | extra
    k = data.draw(st.integers(min_value=lo.bit_count(), max_value=hi.bit_count()))
    cover = _truncated_cover(lo, hi, k)
    seen: dict[int, int] = {}
    for a, c in cover:
        assert lo & ~a == 0 and a & ~c == 0 and c & ~hi == 0
        assert c.bit_count() == k
        for m in range(1 << n):
            if (interval_bits(a, c) >> m) & 1:
                seen[m] = seen.get(m, 0) + 1
    span = hi & ~lo
    expected = set()
    g = span
    while True:
        m = lo | g
        if m.bit_count() <= k:
            expected.add(m)
        if g == 0:
            break
        g = (g - 1) & span
    assert seen == {m: 1 for m in expected}


def test_normalize_partition_truncates_and_fills():
    Q = QuotientPair(from_strs(3, "x1"), Ideal(3))
    big = Partition((Interval(parse_monomial("x1"), parse_monomial("x1*x2*x3")),))
    out = normalize_partition(Q, big, 2)
    assert verify_partition(Q, out)
    assert out.sdepth_value == 2
    assert len(out.intervals) == 3
    unchanged = normalize_partition(Q, big, 3)
    assert unchanged.intervals == big.intervals

    Q2 = QuotientPair(from_strs(2, "x1"), Ideal(2))
    with pytest.raises(InputError, match="tops out below degree 2"):
        normalize_partition(
            Q2, Partition((Interval(parse_monomial("x1"), parse_monomial("x1")),)), 2
        )
    with pytest.raises(InputError, match="cannot be normalized"):
        normalize_partition(
            Q2,
            Partition((Interval(parse_monomial("x1*x2"), parse_monomial("x1*x2")),)),
            2,
        )


def test_build_h_reads_off_listed_assignment():
    Q, b, listed = _bad_setup()
    H = build_h(Q, b, listed)
    assert H.partition.sdepth_value == 3
    assert tuple(H.inners) == (parse_monomial("x2"), parse_monomial("x3"))
    assert H.to_json() == {
        "b": "x1*x4",
        "mapping": {
            "x2": "x1*x2*x3",
            "x3": "x1*x3*x5",
            "x1*x5": "x1*x2*x5",
            "x2*x5": "x2*x3*x5",
            "x4*x5": "x1*x4*x5",
            "x5*x6": "x4*x5*x6",
        },
        "inners": {
            "x2": ["x1*x2", "x2*x3"],
            "x3": ["x1*x3", "x3*x5"],
        },
    }
    assert tuple(m for m in H.mapping if m not in H.inners) == tuple(
        parse_monomial(t) for t in ("x1*x5", "x2*x5", "x4*x5", "x5*x6")
    )
    assert H.h(parse_monomial("x4*x5")) == parse_monomial("x1*x4*x5")
    assert H.inner == frozenset(
        parse_monomial(t) for t in ("x1*x2", "x2*x3", "x1*x3", "x3*x5")
    )
    assert len(set(H.mapping.values())) == 6
    assert H.in_inner_ideal(parse_monomial("x1*x2*x5"))
    assert not H.in_inner_ideal(parse_monomial("x4*x5*x6"))


def test_find_paths_on_showcase():
    Q, b, listed = _bad_setup()
    H = build_h(Q, b, listed)
    x1x5 = parse_monomial("x1*x5")
    search = find_paths(H, x1x5)
    wanted = (x1x5, parse_monomial("x2*x5"))
    assert len(search.paths) == 1
    p = search.paths[0]
    assert p.elements == wanted and p.weak and not p.bad and p.maximal
    assert p.to_json() == {
        "elements": ["x1*x5", "x2*x5"], "weak": True, "bad": False,
        "maximal": True,
    }
    assert search.T == frozenset(wanted)
    assert search.weak_exists and not search.bad_exists

    bad_search = find_paths(H, parse_monomial("x4*x5"))
    assert bad_search.bad_exists
    assert all(p.bad for p in bad_search.paths)

    for start in (b, parse_monomial("x1*x2")):
        with pytest.raises(SurgeryError, match="not admissible"):
            find_paths(H, start)


def test_rotate_single_segment_and_errors():
    Q, b, listed = _bad_setup()
    pair_b = build_reduced_pair(Q, b)
    H = build_h(Q, b, listed)
    x1x5 = parse_monomial("x1*x5")
    same = rotate(pair_b, H.partition, [x1x5])
    assert set(same.intervals) == set(H.partition.intervals)
    with pytest.raises(InputError, match="at least one"):
        rotate(pair_b, H.partition, [])
    with pytest.raises(InputError, match="not an interval bottom"):
        rotate(pair_b, H.partition, [b])
    with pytest.raises(InputError, match="illegal rotation"):
        rotate(pair_b, H.partition, [x1x5, parse_monomial("x4*x5")])


def test_swap_into_generator():
    Q, b, listed = _bad_setup()
    pair_b = build_reduced_pair(Q, b)
    H = build_h(Q, b, listed)
    x2 = parse_monomial("x2")
    swapped = swap_into_generator(pair_b, H.partition, x2, parse_monomial("x2*x5"))
    by_lo = {iv.lo: iv for iv in swapped.intervals}
    assert by_lo[x2].hi == parse_monomial("x2*x3*x5")
    assert by_lo[parse_monomial("x1*x2")].hi == parse_monomial("x1*x2*x3")
    H2 = build_h(Q, b, swapped)
    assert H2.inners[x2] == (parse_monomial("x2*x3"), parse_monomial("x2*x5"))

    with pytest.raises(InputError, match="must both be interval bottoms"):
        swap_into_generator(pair_b, H.partition, x2, b)
    with pytest.raises(InputError, match="is not a multiple"):
        swap_into_generator(pair_b, H.partition, x2, parse_monomial("x1*x5"))
    with pytest.raises(InputError, match="two-inner generator interval"):
        swap_into_generator(
            pair_b, H.partition, parse_monomial("x1*x5"), parse_monomial("x1*x5")
        )
    Q3 = QuotientPair(from_strs(3, "x1"), Ideal(3))
    P3 = Partition((Interval(parse_monomial("x1"), parse_monomial("x1*x2*x3")),))
    with pytest.raises(InputError, match="exactly one inner"):
        swap_into_generator(Q3, P3, parse_monomial("x1"), parse_monomial("x1"))


def test_check_pair_hypotheses_clauses():
    with pytest.raises(SurgeryError, match=r"r=2 fails: r=3"):
        check_pair_hypotheses(parse_input(ITEMS["bad"]))
    # the clauses read the normal form: x3 lies in J, so I' = (x1, x2), r = 2
    with pytest.raises(SurgeryError, match=r"4 <= s <= q\+2 fails: s=3, q=1"):
        check_pair_hypotheses(
            QuotientPair(from_strs(4, "x1", "x2", "x3"), from_strs(4, "x3"))
        )
    with pytest.raises(SurgeryError, match="degree d\\+1"):
        check_pair_hypotheses(
            QuotientPair(from_strs(5, "x1", "x2", "x3*x4*x5"), Ideal(5))
        )
    with pytest.raises(SurgeryError, match=r"4 <= s <= q\+2 fails: s=3, q=1"):
        check_pair_hypotheses(
            QuotientPair(from_strs(4, "x1*x2", "x1*x3"), Ideal(4))
        )
    with pytest.raises(SurgeryError, match=r"C-containment fails at x1\*x2\*x4\*x5"):
        check_pair_hypotheses(
            QuotientPair(from_strs(5, "x1*x2", "x2*x3"), Ideal(5))
        )
    Q = parse_input(CASE_BAD_PATH)
    check_pair_hypotheses(Q)  # must not raise


def test_ml1_candidate_bs():
    assert ml1_candidate_bs(parse_input(ITEMS["bad"])) == ()
    Q = parse_input(CASE_BAD_PATH)
    bs = ml1_candidate_bs(Q)
    assert bs
    assert parse_monomial("x1*x2*x4") in bs
    st_all = set(bs)
    assert all(
        sum(1 for f in (parse_monomial("x1*x4"), parse_monomial("x4*x5"))
            if f.divides(b)) == 1
        for b in st_all
    )


def test_driver_bad_path_upgrade():
    Q = parse_input(CASE_BAD_PATH)
    b = parse_monomial("x1*x2*x4")
    out = ml1_driver(Q, b)
    assert out.kind == "upgraded_partition" and not out.fallback
    assert out.partition.sdepth_value == 4
    assert verify_partition(Q, out.partition)
    assert verify_outcome(Q, out)
    assert out.trace == (
        "reduced pair partition of value 4 found",
        "stage 0: start x1*x3*x4",
        "case 3: bad path ['x1*x3*x4', 'x3*x4*x5', 'x3*x4*x6', 'x1*x4*x6'] "
        "with top x1*x2*x4*x6",
        "upgrade by direct switch at x1*x4*x6",
    )
    again = ml1_driver(Q, b)
    assert again == out  # deterministic
    j = out.to_json()
    assert j["kind"] == "upgraded_partition" and j["value"] == 4
    assert j["trace"] == list(out.trace)


def test_driver_weak_path_witness():
    Q = parse_input(CASE_WEAK_PATH)
    b = parse_monomial("x2*x3")
    out = ml1_driver(Q, b)
    assert out.kind == "subideal_witness" and not out.fallback
    assert out.subideal == from_strs(6, "x2*x3", "x2*x6")
    assert out.sdepth_sub == 2 and out.depth_rest == 2
    assert verify_outcome(Q, out)
    assert out.trace == (
        "reduced pair partition of value 3 found",
        "stage 0: start x1*x3",
        "case 2: weak path ['x1*x3', 'x3*x4'] hits (x3*x6) at x3*x4*x6",
        "joined x4*x6 onto the weak path by rotation",
        "swapped x4*x6 into the x6 interval",
        "completing the reach set through x1*x6",
        "subideal witness (x2*x3, x2*x6): sdepth 2 <= 2",
    )
    j = out.to_json()
    assert j["subideal"] == ["x2*x3", "x2*x6"]
    assert j["sdepth_sub"] == 2 and j["depth_rest"] == 2


def test_driver_runs_every_b_of_the_bad_path_pair():
    # every candidate b upgrades the partition, and only x3*x4*x5 needs the
    # fallback
    Q = parse_input(CASE_BAD_PATH)
    bs = ("x1*x2*x4", "x1*x3*x4", "x1*x4*x6", "x2*x4*x5", "x3*x4*x5", "x4*x5*x6")
    assert [str(b) for b in ml1_candidate_bs(Q)] == list(bs)
    outcomes = {b: ml1_driver(Q, parse_monomial(b)) for b in bs}
    for b, out in outcomes.items():
        assert out.kind == "upgraded_partition"
        assert out.fallback == (b == "x3*x4*x5")
        assert verify_outcome(Q, out)
    assert outcomes["x3*x4*x5"].trace == (
        "reduced pair partition of value 4 found",
        "stage 0: start x1*x3*x4",
        "case 3: bad path ['x1*x3*x4'] with top x1*x3*x4*x5",
        "continuation vertex x1*x4*x5 is not admissible",
        "fallback: deciding the disjunction by direct computation",
    )


def _driver_answer(Q, b):
    try:
        out = ml1_driver(Q, b)
    except (SurgeryError, DriverFailure) as exc:
        return type(exc).__name__, str(exc)
    return out.to_json(), verify_outcome(Q, out)


@pytest.mark.parametrize("n, seeds", [(5, range(100)), (6, range(100))])
def test_driver_reads_the_normal_form_of_a_re_embedded_pair(n, seeds):
    # adding x_{n+1} to both I and J keeps the poset, so every answer must
    # stay the same although J now has a generator of degree 1.  At n=6,
    # seed 45 (I = (x1, x4, x2*x6, x5*x6), b = x3*x4) reaches the candidate
    # I' = I in its fallback: not proper, since it leaves no rest, although
    # it does not contain the re-embedded I, which has x7 too
    runs = 0
    for seed in seeds:
        got = sample_ml1_instance(random.Random(seed), n=n)
        if got is None:
            continue
        Q, bs = got
        x = Monomial.of(n + 1)
        R = QuotientPair(Ideal(n + 1, (*Q.I.gens, x)), Ideal(n + 1, (*Q.J.gens, x)))
        assert ml1_candidate_bs(R) == bs
        for b in bs:
            assert _driver_answer(R, b) == _driver_answer(Q, b)
            runs += 1
    assert runs > 50


def test_driver_trail_revisit_at_stage_1():
    Q = parse_input(CASE_TRAIL_REVISIT)
    out = ml1_driver(Q, parse_monomial("x1*x2*x3"))
    assert out.kind == "upgraded_partition" and not out.fallback
    assert out.partition.sdepth_value == 4
    assert verify_outcome(Q, out)
    assert out.trace == (
        "reduced pair partition of value 4 found",
        "stage 0: start x1*x2*x5",
        "case 3: bad path ['x1*x2*x5'] with top x1*x2*x3*x5",
        "continuing from x1*x3*x5",
        "stage 1: start x1*x3*x5",
        "upgrade via trail revisit at x1*x3*x5",
    )


def test_driver_falls_back_at_an_inadmissible_continuation():
    Q = parse_input(CASE_BAD_PATH)
    out = ml1_driver(Q, parse_monomial("x3*x4*x5"))
    assert out.kind == "upgraded_partition" and out.fallback
    assert out.partition.sdepth_value == 4
    assert verify_outcome(Q, out)
    assert out.trace == (
        "reduced pair partition of value 4 found",
        "stage 0: start x1*x3*x4",
        "case 3: bad path ['x1*x3*x4'] with top x1*x3*x4*x5",
        "continuation vertex x1*x4*x5 is not admissible",
        "fallback: deciding the disjunction by direct computation",
    )


@pytest.mark.parametrize("text, b", [
    (CASE_WEAK_PATH, "x2*x3"),
    (CASE_TRAIL_REVISIT, "x1*x2*x3"),
    (CASE_BAD_PATH, "x3*x4*x5"),
], ids=["weak_path", "trail_revisit", "fallback"])
def test_driver_builds_one_reduced_pair_per_run(monkeypatch, text, b):
    calls = []
    build = surgery.build_reduced_pair

    def spy(Q, b):
        calls.append(b)
        return build(Q, b)

    monkeypatch.setattr(surgery, "build_reduced_pair", spy)
    ml1_driver(parse_input(text), parse_monomial(b))
    assert calls == [parse_monomial(b)]


# sampler seed 45 at n=6: the run from x3*x4 falls back, and the fallback
# ends in a subideal witness found by `_finish`
_FALLBACK_WITNESS = (
    "n=6\nI = x1, x4, x2*x6, x5*x6\n"
    "J = x1*x2*x3, x1*x2*x5, x1*x3*x5, x1*x3*x6, x2*x3*x4, x2*x3*x6, "
    "x2*x4*x5, x3*x4*x5, x3*x4*x6, x3*x5*x6\n"
)


@pytest.mark.parametrize("text, b, builds, kind, fallback", [
    (CASE_TRAIL_REVISIT, "x1*x2*x3", 1, "upgraded_partition", False),
    # the second build is for the swapped partition
    (CASE_WEAK_PATH, "x2*x3", 2, "subideal_witness", False),
    (_FALLBACK_WITNESS, "x3*x4", 1, "subideal_witness", True),
], ids=["trail_revisit", "weak_path", "fallback_witness"])
def test_driver_builds_one_h_map_per_run(monkeypatch, text, b, builds, kind,
                                         fallback):
    calls = []
    h_map = surgery._h_map

    def spy(*args):
        calls.append(args[-1])
        return h_map(*args)

    monkeypatch.setattr(surgery, "_h_map", spy)
    Q = parse_input(text)
    out = ml1_driver(Q, parse_monomial(b))
    assert (out.kind, out.fallback) == (kind, fallback)
    assert verify_outcome(Q, out)
    assert len(calls) == builds


def _driver_dump_sha256(n: int, seeds) -> str:
    """sha256 of `scripts/driver_dump.py` on the seeds at n: every sampled
    pair, its bs, and each driver outcome with its trace and verify_outcome
    verdict."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "driver_dump.py"
    dump_lines = runpy.run_path(str(script))["dump_lines"]
    h = hashlib.sha256()
    for line in dump_lines(n, seeds):
        h.update((line + "\n").encode())
    return h.hexdigest()


def test_driver_dump_matches_the_recorded_answers():
    assert _driver_dump_sha256(6, range(40)) == (
        "2eb2892ac06fa1f3b98700c97b5ec75c0d673c7a55256db25911cf85cddabcf1"
    )


def test_driver_dump_at_n7_matches_the_recorded_answers():
    # `7 0 199`, 776 lines, holds 432 runs whose reduced pair fails d+2
    assert _driver_dump_sha256(7, range(200)) == (
        "b6cf77847c7e13cbdd82b73e845ec82fe14d9d507aff11ecb51fb31444a55626"
    )


@pytest.mark.parametrize("n, seeds, refuted, runs", [
    (6, range(40), 162, 276),
    (7, range(50), 72, 96),
], ids=["n6", "n7"])
def test_colon_refuter_decides_the_driver_reduced_pairs(n, seeds, refuted, runs):
    # the colon bound makes every firing a true refutation; on these seeds it
    # also catches every I_b/J_b that the search finds without a value-(d+2)
    # partition, so the driver's answers need no search there
    fired = total = 0
    for seed in seeds:
        got = sample_ml1_instance(random.Random(seed), n=n)
        if got is None:
            continue
        Q, bs = got
        d = strata(Q).d
        for b in bs:
            pair_b = build_reduced_pair(Q, b)
            hit = colon_refuter(pair_b, d + 2) is not None
            assert hit == (sdepth_decide(pair_b, d + 2) is None)
            fired += hit
            total += 1
    assert (fired, total) == (refuted, runs)


def test_driver_rejects_bad_inputs():
    with pytest.raises(SurgeryError, match="r=2 fails"):
        ml1_driver(parse_input(ITEMS["bad"]), parse_monomial("x1*x4"))
    Q = parse_input(CASE_BAD_PATH)
    with pytest.raises(SurgeryError, match="not in B"):
        ml1_driver(Q, parse_monomial("x1*x2*x3*x4*x5"))
    # static hypotheses hold but the reduced pair has no value-(d+2)
    # partition, so the dynamic check rejects this candidate
    weak = parse_input(CASE_WEAK_PATH)
    stubborn = parse_monomial("x1*x3")
    assert stubborn in ml1_candidate_bs(weak)
    with pytest.raises(
        SurgeryError,
        match=r"hypothesis sdepth\(I_b/J_b\) >= d\+2 fails for b=x1\*x3",
    ):
        ml1_driver(weak, stubborn)


def test_sampler_yields_hypothesis_satisfying_instances():
    rng = random.Random(0)
    got = sample_ml1_instance(rng, n=6)
    assert got is not None
    Q, bs = got
    check_pair_hypotheses(Q)
    assert bs == ml1_candidate_bs(Q)
    assert bs


def _driver_instances(seeds):
    for seed in seeds:
        got = sample_ml1_instance(random.Random(seed), n=6)
        if got is not None:
            yield got


def test_sampler_closure_matches_one_kill_at_a_time(monkeypatch):
    tries = []
    closure = fuzz._containment_closure

    def spy(gens, rng, filters, *layers):
        got = closure(gens, rng, filters, *layers)
        I = Ideal(filters.n, map(Monomial, gens))
        # the distinct generators drawn are the minimal ones
        assert sorted(gens) == sorted(I.gen_masks())
        tries.append((I, got))
        return got

    monkeypatch.setattr(fuzz, "_containment_closure", spy)
    for _ in _driver_instances(range(40)):
        pass
    assert len(tries) > 40
    # the tries repeat ideals and J's: check each distinct one once
    kills_of: dict = {}
    finals = set()
    for I, (kill_bits, pool_bits, indices, s, q) in tries:
        n = I.ambient
        if I not in kills_of:
            Q0 = QuotientPair(I, Ideal(n))
            kill = [c.mask for c in containment_kills_one_at_a_time(Q0)]
            kills_of[I] = kill, {c.mask for c in strata(Q0).C} - set(kill)
        kill, rest = kills_of[I]
        kills = [m for m in range(1 << n) if kill_bits >> m & 1]
        assert sorted(kill) == kills
        # the pool is the rest of C, and the picks index it in canonical order
        assert {m for m in range(1 << n) if pool_bits >> m & 1} == rest
        assert len(indices) <= 2
        picks = [sorted(rest, key=canonical_key)[i] for i in indices]
        assert set(picks) <= rest
        J = Ideal(n, map(Monomial, kills + picks))
        finals.add((QuotientPair(I, J), s, q))
    for Q, s, q in finals:
        st = strata(Q)
        assert containment_violators(st) == ()
        assert (st.s, st.q) == (s, q)


def test_reach_set_is_the_union_of_enumerated_paths():
    cases = 0
    for Q, bs in _driver_instances(range(40)):
        d = strata(Q).d
        for b in bs:
            cert = sdepth_decide(build_reduced_pair(Q, b), d + 2)
            if cert is None:
                continue
            H = build_h(Q, b, cert)
            for a in H.mapping:
                if a in H.inner or a == b:
                    continue
                search = find_paths(H, a)
                assert search.T == frozenset(
                    m for p in search.paths for m in p.elements
                )
                cases += 1
    assert cases > 500


def test_verify_outcome_rejects_tampering():
    Q = parse_input(CASE_BAD_PATH)
    b = parse_monomial("x1*x2*x4")
    out = ml1_driver(Q, b)
    assert verify_outcome(Q, out)

    assert not verify_outcome(Q, SurgeryOutcome(kind="upgraded_partition"))
    assert not verify_outcome(Q, SurgeryOutcome(kind="mystery"))
    low = Partition(tuple(
        Interval(Monomial(m), Monomial(m))
        for m in poset_view(Q).elements
    ))
    assert not verify_outcome(
        Q, SurgeryOutcome(kind="upgraded_partition", partition=low)
    )

    Qw = parse_input(CASE_WEAK_PATH)
    wit = ml1_driver(Qw, parse_monomial("x2*x3"))
    assert verify_outcome(Qw, wit)
    assert not verify_outcome(
        Qw, SurgeryOutcome(kind="subideal_witness", subideal=Qw.I)
    )
    assert not verify_outcome(
        Qw, SurgeryOutcome(kind="subideal_witness", subideal=Ideal(6))
    )
    assert not verify_outcome(
        Qw,
        SurgeryOutcome(kind="subideal_witness",
                       subideal=from_strs(6, "x1*x2")),
    )
    assert not verify_outcome(
        Qw,
        SurgeryOutcome(kind="subideal_witness",
                       subideal=from_strs(6, "x3")),
    )
    # a subideal inside J: its end of the sequence is zero, not an error
    assert not verify_outcome(
        parse_input(ITEMS["bad"]),
        SurgeryOutcome(kind="subideal_witness",
                       subideal=from_strs(6, "x2*x4")),
    )


def test_driver_failure_carries_trace():
    err = DriverFailure("went nowhere", ("step 1", "step 2"))
    assert isinstance(err, RuntimeError)
    assert err.trace == ("step 1", "step 2")
    assert isinstance(SurgeryError("x"), InputError)


def test_witness_chain_on_showcase():
    """The manual rewrite: swap, then the complement of the reach set is the
    witness subideal whose quotient has Stanley depth d+1 while the
    complementary quotient keeps depth d+1."""
    Q, b, listed = _bad_setup()
    pair_b = build_reduced_pair(Q, b)
    H = build_h(Q, b, listed)
    swapped = swap_into_generator(pair_b, H.partition, parse_monomial("x2"),
                                  parse_monomial("x2*x5"))
    H2 = build_h(Q, b, swapped)
    inners = H2.inner
    assert inners == frozenset(
        parse_monomial(t) for t in ("x2*x3", "x2*x5", "x1*x3", "x3*x5")
    )
    x1x2 = parse_monomial("x1*x2")
    T = {parse_monomial("x1*x5"), parse_monomial("x2*x5"), x1x2}
    T |= set(_bfs(H2, x1x2))
    T |= {parse_monomial("x3*x5"), parse_monomial("x1*x3")}
    G = sorted(set(H2.st.B) - T - set(inners), key=Monomial.sort_key)
    assert [str(g) for g in G] == ["x1*x4", "x4*x5", "x5*x6"]
    I_w = minimalize(6, G)
    sub = QuotientPair(I_w, intersect(Q.J, I_w))
    assert sdepth_decide(sub, 3) is None

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    CASE_BAD_PATH,
    CASE_WEAK_PATH,
    as_pair,
    brute_poset_masks,
    from_strs,
    is_convex,
    quotient_pairs,
    si_pair,
    unit_ideal,
)
from sdepthlab.engines import EngineCache
from sdepthlab.hilbert import hdepth1, hdepth1_pair, hilbert_series
from sdepthlab.io import parse_input
from sdepthlab.monomials import (
    Ideal,
    Monomial,
    QuotientPair,
    colon_pair,
    indices_of,
    parse_monomial,
)
from sdepthlab.poset import (
    _minimal,
    degree_bits,
    downward_closure,
    layer_counts,
    poset_bitset,
    poset_view,
    split_pair,
    strata,
    upward_closure,
)
from sdepthlab.sdepth import _restrict, _support


def _bits_to_masks(bits: int) -> list[int]:
    out = []
    m = 0
    while bits:
        if bits & 1:
            out.append(m)
        bits >>= 1
        m += 1
    return out


@given(quotient_pairs(normalized=False))
def test_poset_bitset_matches_brute(Q):
    assert _bits_to_masks(poset_bitset(Q)) == brute_poset_masks(Q)


@given(quotient_pairs(max_n=7, normalized=False))
def test_derived_views_are_convex(Q):
    # view_of trusts its family to be convex; every view the engines derive
    # must be, or they answer for a family no module has
    cache = EngineCache()
    views = [poset_view(Q), *cache.subideal_split(Q)]
    for row in cache.derived_pairs(Q):
        views.extend(row)
    views = [poset_view(v) for v in views if v is not None]
    views += [_restrict(v, support) for v in views
              if (support := _support(v)[0])]
    assert all(is_convex(v) for v in views)


def test_poset_of_si_form_contains_unit():
    Q = si_pair(from_strs(3, "x1*x2"))
    masks = _bits_to_masks(poset_bitset(Q))
    assert 0 in masks  # the monomial 1 lies in S \ I
    assert Monomial.of(1, 2).mask not in masks


@st.composite
def families(draw, max_n: int = 8) -> tuple[int, int]:
    """(n, bits): an arbitrary subset-indexed bitset over x_1..x_n."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    return n, draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))


@given(families())
def test_upward_closure_brute(family):
    n, seed_bits = family
    seeds = _bits_to_masks(seed_bits)
    expected = {m for m in range(1 << n) if any(s & ~m == 0 for s in seeds)}
    assert set(_bits_to_masks(upward_closure(seed_bits, n))) == expected


@pytest.mark.parametrize("n", range(7))
def test_downward_closure_brute(n):
    rng = random.Random(n)
    space = 1 << n
    full = (1 << space) - 1
    for _ in range(60):
        seed_bits = rng.randint(0, full) & rng.randint(0, full)
        seeds = _bits_to_masks(seed_bits)
        expected = {m for m in range(space) if any(m & ~s == 0 for s in seeds)}
        assert set(_bits_to_masks(downward_closure(seed_bits, n))) == expected


def _brute_minimal(bits: int) -> list[int]:
    # the masks of the family with no proper submask in it
    out = []
    for m in _bits_to_masks(bits):
        s = m
        while s:
            s = (s - 1) & m
            if (bits >> s) & 1:
                break
        else:
            out.append(m)
    return out


@given(quotient_pairs(max_n=8, max_gens=5), st.data())
def test_minimal_matches_brute(Q, data):
    # convex families: P itself, the posets of its colon pairs and both
    # ends of a split by a random subideal
    n = Q.ambient
    sub = Ideal(n, [Monomial(data.draw(st.integers(1, (1 << n) - 1)))
                    for _ in range(data.draw(st.integers(1, 3)))])
    derived = [colon_pair(Q, j) for j in range(1, n + 1)]
    derived += split_pair(Q, sub)
    for P in [Q] + [D for D in derived if D is not None]:
        bits = poset_view(P).bits
        assert _bits_to_masks(_minimal(bits, n)) == _brute_minimal(bits)


def test_degree_bits_is_every_mask_of_its_degree():
    for n in range(11):
        for k in range(n + 2):
            assert degree_bits(n, k) == sum(
                1 << m for m in range(1 << n) if m.bit_count() == k)


@given(quotient_pairs(max_n=8, max_gens=5, normalized=False), st.data())
def test_layer_counts_match_brute(Q, data):
    # the pair, its colon pairs and both ends of a split by a random
    # subideal; hdepth1 from the counts against hdepth1 of the series
    n = Q.ambient
    sub = Ideal(n, [Monomial(data.draw(st.integers(1, (1 << n) - 1)))
                    for _ in range(data.draw(st.integers(1, 3)))])
    derived = [colon_pair(Q, j) for j in range(1, n + 1)]
    derived += split_pair(Q, sub)
    for P in [Q] + [D for D in derived if D is not None]:
        degrees = [m.bit_count() for m in brute_poset_masks(as_pair(P))]
        assert layer_counts(P) == [degrees.count(e) for e in range(n + 1)]
        assert hdepth1_pair(P) == hdepth1(hilbert_series(P))


@given(quotient_pairs(normalized=False))
def test_strata_layers_match_brute(Q):
    st_report = strata(Q)
    poset = brute_poset_masks(Q)
    d = min(m.bit_count() for m in poset)
    assert st_report.d == d
    assert [m.mask for m in st_report.B] == sorted(
        (m for m in poset if m.bit_count() == d + 1),
        key=lambda m: Monomial(m).sort_key(),
    )
    assert [m.mask for m in st_report.C] == sorted(
        (m for m in poset if m.bit_count() == d + 2),
        key=lambda m: Monomial(m).sort_key(),
    )
    assert st_report.s == len(st_report.B)
    assert st_report.q == len(st_report.C)
    # the minimal elements of the poset, split by degree
    minimal = [m for m in poset if not any(o != m and o & ~m == 0 for o in poset)]
    assert set(st_report.f_list) == {Monomial(m) for m in minimal if m.bit_count() == d}
    assert set(st_report.E) == {Monomial(m) for m in minimal if m.bit_count() > d}
    assert st_report.r == len(st_report.f_list)


@given(quotient_pairs())
def test_strata_lcm_sets_match_brute(Q):
    rep = strata(Q)
    f = rep.f_list
    lcms = {Monomial(f[i].mask | f[j].mask)
            for i in range(len(f)) for j in range(i + 1, len(f))}
    assert set(rep.W_all) == lcms
    assert set(rep.W_B) == lcms & set(rep.B)
    assert set(rep.C2) == {c for c in rep.C if c in lcms}
    # C3: every degree-(d+1) divisor in B \ E must be a generator lcm
    e_set, b_set, wb_set = set(rep.E), set(rep.B), set(rep.W_B)
    for c in rep.C:
        expected_ok = all(
            not (div in b_set and div not in e_set and div not in wb_set)
            for j in c.vars
            for div in [Monomial(c.mask & ~(1 << (j - 1)))]
        )
        assert (c in set(rep.C3)) == expected_ok


def test_strata_pinned_examples():
    Q = parse_input("n=5\nI = x1*x2, x1*x3, x1*x4, x2*x3*x5\nJ = x2*x3*x4*x5\n")
    rep = strata(Q)
    assert (rep.d, rep.r, rep.s, rep.q) == (2, 3, 7, 4)
    assert [str(g) for g in rep.E] == ["x2*x3*x5"]
    assert [str(c) for c in rep.C] == [
        "x1*x2*x3*x4", "x1*x2*x3*x5", "x1*x2*x4*x5", "x1*x3*x4*x5",
    ]

    Q2 = parse_input(
        "n=6\nI = x1, x2, x3, x4*x5, x5*x6\n"
        "J = x2*x4, x3*x4, x1*x6, x2*x6, x3*x6\n"
    )
    rep2 = strata(Q2)
    assert (rep2.d, rep2.r, rep2.s, rep2.q) == (1, 3, 9, 6)
    assert [str(g) for g in rep2.E] == ["x4*x5", "x5*x6"]
    assert [str(b) for b in rep2.B] == [
        "x1*x2", "x1*x3", "x1*x4", "x1*x5", "x2*x3",
        "x2*x5", "x3*x5", "x4*x5", "x5*x6",
    ]
    assert [str(c) for c in rep2.C] == [
        "x1*x2*x3", "x1*x2*x5", "x1*x3*x5", "x1*x4*x5",
        "x2*x3*x5", "x4*x5*x6",
    ]


def test_strata_to_json_field_names():
    Q = QuotientPair(from_strs(3, "x1"), Ideal(3))
    payload = strata(Q).to_json()
    assert set(payload) == {
        "d", "r", "f_list", "E", "B", "C", "s", "q", "W_B", "W_all", "C2", "C3",
    }
    assert payload["d"] == 1 and payload["r"] == 1
    assert payload["B"] == ["x1*x2", "x1*x3"]


@given(quotient_pairs(normalized=False))
def test_poset_view_matches_brute(Q):
    poset = brute_poset_masks(Q)
    view = poset_view(Q)
    assert view.elements == _canonical(poset)
    assert view.d == min(m.bit_count() for m in poset)
    for k in range(Q.ambient + 2):
        assert view.layer(k) == _canonical(m for m in poset if m.bit_count() == k)


def _canonical(masks) -> list[int]:
    return sorted(masks, key=lambda m: (m.bit_count(), indices_of(m)))


def test_poset_view_elements_and_layers():
    Q = QuotientPair(from_strs(3, "x1"), from_strs(3, "x1*x2*x3"))
    view = poset_view(Q)
    assert [str(Monomial(m)) for m in view.elements] == ["x1", "x1*x2", "x1*x3"]
    assert Monomial.of(1, 2, 3).mask not in view.elements
    assert view.layer(2) == [Monomial.of(1, 2).mask, Monomial.of(1, 3).mask]
    assert view.layer(1) == [Monomial.of(1).mask]
    assert view.layer(3) == []
    assert poset_view(Q) is view


def test_min_poset_degree():
    assert poset_view(si_pair(from_strs(3, "x1*x2"))).d == 0
    Q = QuotientPair(from_strs(4, "x1", "x2*x3"), from_strs(4, "x1*x4"))
    assert poset_view(Q).d == 1
    # the degree-1 generator lies in J, so the least degree comes from x2*x3
    Q2 = QuotientPair(from_strs(4, "x1", "x2*x3"), from_strs(4, "x1"))
    assert poset_view(Q2).d == 2


def test_one_poset_build_per_pair(monkeypatch):
    import sdepthlab.poset as poset_mod
    from sdepthlab.depth import depth
    from sdepthlab.engines import EngineCache
    from sdepthlab.hilbert import hilbert_series
    from sdepthlab.sdepth import sdepth, sdepth_decide, verify_partition
    from sdepthlab.surgery import (
        build_h,
        build_reduced_pair,
        ml1_candidate_bs,
        ml1_driver,
        verify_outcome,
    )

    calls = []
    original = poset_mod.poset_bitset

    def counted(Q):
        calls.append(Q)
        return original(Q)

    reports = []
    original_report = poset_mod.StrataReport

    def counted_report(**fields):
        reports.append(fields)
        return original_report(**fields)

    monkeypatch.setattr(poset_mod, "poset_bitset", counted)
    monkeypatch.setattr(poset_mod, "StrataReport", counted_report)
    Q = parse_input("n=5\nI = x1*x2, x1*x3, x1*x4, x2*x3*x5\nJ = x2*x3*x4*x5\n")
    strata(Q)
    res = sdepth(Q)
    assert verify_partition(Q, res.certificate)
    hilbert_series(Q)
    depth(Q, field=0)
    depth(Q, field=2)
    assert calls == [Q]
    assert len(reports) == 1

    # the cache and every surgery entry point read the pair's one report
    for text, b in ((CASE_BAD_PATH, "x1*x2*x4"), (CASE_WEAK_PATH, "x2*x3")):
        reports.clear()
        Q = parse_input(text)
        b = parse_monomial(b)
        cache = EngineCache()
        assert cache.strata(Q) is strata(Q)
        assert b in ml1_candidate_bs(Q)
        assert verify_outcome(Q, ml1_driver(Q, b))
        P_b = sdepth_decide(build_reduced_pair(Q, b), strata(Q).d + 2)
        build_h(Q, b, P_b)
        assert len(reports) == 1


def test_unit_quotient_degree_zero():
    Q = si_pair(from_strs(2, "x1*x2"))
    assert strata(Q).d == 0
    assert unit_ideal(2).is_unit()

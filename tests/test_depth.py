from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    RP2,
    ascending_depth,
    from_strs,
    koszul_betti,
    nonsquarefree_koszul_sweep,
    proper_ideals,
    quotient_pairs,
    si_pair,
    unit_ideal,
)
import sdepthlab.depth as depth_module
from sdepthlab import corpus
from sdepthlab.depth import DepthResult, _candidates_by_degree, depth
from sdepthlab.engines import EngineCache
from sdepthlab.fuzz import FuzzConfig, instance_rng, random_pair, run_instance
from sdepthlab.io import parse_input
from sdepthlab.monomials import (
    Ideal,
    InputError,
    Monomial,
    QuotientPair,
    colon_pair,
)
from sdepthlab.poset import filter_bitset, poset_view, split_filter
from sdepthlab.reisner import reisner_depth_oracle

PATH = parse_input("n=4\nI = x1*x2, x2*x3, x3*x4\nJ = 0\n")


@given(proper_ideals())
def test_koszul_matches_reisner_on_si_forms(I):
    for char in (0, 2):
        assert depth(si_pair(I), field=char).depth == reisner_depth_oracle(I, field=char)


@given(proper_ideals(max_n=4))
@settings(max_examples=30)
def test_koszul_matches_reisner_char3(I):
    assert depth(si_pair(I), field=3).depth == reisner_depth_oracle(I, field=3)


@given(quotient_pairs(normalized=False))
def test_depth_result_invariants(Q):
    res = depth(Q, 0)
    assert isinstance(res, DepthResult)
    assert res.depth + res.pd == Q.ambient
    assert 0 <= res.depth <= Q.ambient
    assert res.witness_index == res.pd
    # the witness multidegree really carries nonzero Koszul homology
    assert koszul_betti(Q, res.witness_degree.mask, 0)[res.pd] > 0


@st.composite
def colon_pairs(draw):
    """(I:x_j)/(J:x_j) of a random pair, built by ideal arithmetic for the
    oracle, or the pair itself when the colons coincide; I:x_j is (1)
    whenever x_j ∈ I."""
    Q = draw(quotient_pairs(normalized=False))
    j = draw(st.integers(min_value=1, max_value=Q.ambient))
    n, x = Q.ambient, 1 << (j - 1)
    I, J = (Ideal(n, [Monomial(g & ~x) for g in side.gen_masks()])
            for side in (Q.I, Q.J))
    return Q if J.contains_ideal(I) else QuotientPair(I, J)


def _oracle_depth(Q, char):
    """(pd, first witness in canonical order) from the unreduced, unscreened
    Koszul homology of every submask of the active variables."""
    pd = witness = None
    for a in sorted(_all_submasks(Q), key=lambda m: (m.bit_count(), Monomial(m).vars)):
        betti = koszul_betti(Q, a, char)
        top = max((i for i, h in enumerate(betti) if h), default=-1)
        if pd is None or top > pd:
            pd, witness = top, a
    return pd, witness


@given(st.one_of(quotient_pairs(normalized=False), proper_ideals().map(si_pair),
                 colon_pairs()))
# pairs whose answer needs the gradient-path terms of the Morse differential
@example(parse_input("n=4\nI = x1*x2, x2*x4, x1*x3*x4\nJ = x1*x2*x3\n"))
@example(parse_input("n=4\nI = x1, x3, x4\nJ = x1*x2, x1*x3*x4\n"))
# S itself: its one homology class sits at a = 1, which has no variable to
# match on
@example(QuotientPair(unit_ideal(3), Ideal(3)))
def test_reduced_walk_matches_the_unreduced_homology(Q):
    results = {}
    for char in (0, 2, 3):
        res = results[char] = depth(Q, field=char)
        assert (res.pd, res.witness_degree.mask) == _oracle_depth(Q, char), char
        assert res.depth == Q.ambient - res.pd
    assert results[0].gf2 == results[2]


def _pinned_pairs():
    # seed-2026 stream pairs at n = 5, 6, and S/I and I/J pairs at n = 9..12
    pairs = []
    for n in (5, 6):
        cfg = FuzzConfig(n=n, seed=2026)
        pairs += [random_pair(instance_rng(2026, i), cfg) for i in range(1500)]
    rng = random.Random(16)
    for n in (9, 10, 11, 12):
        # FuzzConfig.validate caps n at 8, but random_pair reads only its fields
        cfg = FuzzConfig(n=n, max_gens=6, max_degree=3)
        for _ in range(3):
            gens = [Monomial.of(*rng.sample(range(1, n + 1), rng.randint(2, 3)))
                    for _ in range(6)]
            pairs.append(si_pair(Ideal(n, gens)))
            pairs.append(random_pair(rng, cfg))
    return pairs


def test_depth_answers_match_the_recorded_answers():
    # every DepthResult and its char-2 twin in chars 0, 2, 3 and 32003,
    # recorded before the walk ranked a Morse-reduced complex
    h = hashlib.sha256()
    for Q in _pinned_pairs():
        for char in (0, 2, 3, 32003):
            res = depth(Q, field=char)
            rec = [res.to_json(), res.gf2.to_json() if res.gf2 else None]
            h.update((json.dumps(rec, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == (
        "1d6ef4414465f78ff3a2beb8fe7e3993b9ed8abc8cf734ec7f2001eafa868a47"
    )


@st.composite
def derived_views(draw):
    """A colon (I:x_j)/(J:x_j) of a random pair, or an end of its split by
    the squarefree monomials of a random ideal: views, as the verdicts hand
    them to depth."""
    Q = draw(quotient_pairs(max_n=7, normalized=False))
    n = Q.ambient
    if draw(st.booleans()):
        return colon_pair(Q, draw(st.integers(min_value=1, max_value=n))) or Q
    gens = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                         min_size=1, max_size=3))
    ends = [end for end in split_filter(Q, filter_bitset(n, tuple(gens))) if end]
    return draw(st.sampled_from(ends))


def _assert_scans_agree(Q):
    for char in (0, 2, 3):
        res = depth(Q, char)
        gf2 = res.gf2.to_json() if res.gf2 else None
        assert (res.to_json(), gf2) == ascending_depth(Q, char), char


# RP2, the real projective plane: pd over Q (3) lies below pd over GF(2)
# (4), so the two floors of one scan differ
@given(st.one_of(quotient_pairs(max_n=7, normalized=False), derived_views()))
@settings(max_examples=150)
@example(RP2)
@example(colon_pair(RP2, 1))
def test_top_down_scan_matches_the_ascending_one(Q):
    _assert_scans_agree(Q)


def test_top_down_scan_matches_the_ascending_one_on_the_stream():
    cfg = FuzzConfig(n=6, seed=2026)
    for idx in range(200):
        _assert_scans_agree(random_pair(instance_rng(cfg.seed, idx), cfg))


def test_stream_pass_scans_from_the_top(monkeypatch):
    # one run_instance pass over the 1 000 seed-2026 n=6 stream pairs, each
    # with a fresh cache; the upward scan of every candidate made 61 338.
    # A candidate of degree k with k − d at most its floor is not walked
    calls = []
    real = depth_module._top_homology

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(depth_module, "_top_homology", counted)
    cfg = FuzzConfig(n=6, seed=2026)
    pool = [random_pair(instance_rng(cfg.seed, idx), cfg) for idx in range(1000)]
    for Q in pool:
        run_instance(Q, cfg, cache=EngineCache())
    assert len(calls) == 24679
    # pair 12 ties pd = 2 in degrees 5 and 4: the lower-degree candidate
    # comes first canonically, so it must take the witness over the higher
    Q = pool[12]
    res = depth(Q, 0)
    assert (res.pd, str(res.witness_degree)) == (2, "x2*x3*x5*x6")
    high = Monomial.of(1, 2, 4, 5, 6).mask
    assert real(poset_view(Q).bits, high, 1, 0, 1) == (2, 2)


@given(st.one_of(quotient_pairs(normalized=False), proper_ideals().map(si_pair)))
def test_homology_lies_in_the_lcm_candidates(Q):
    cands = {a for _, bucket in _candidates_by_degree(Q) for a in bucket}
    for char in (0, 2, 3):
        for a in _all_submasks(Q):
            if any(koszul_betti(Q, a, char)):
                assert a in cands, (a, char)


@given(quotient_pairs(max_n=4))
@settings(max_examples=20)
def test_nonsquarefree_degrees_have_no_homology(Q):
    # depth reads squarefree multidegrees only, sound only if these carry none
    assert nonsquarefree_koszul_sweep(Q, 0) == []


def test_principal_ideal_is_free():
    # x1*S is a rank-one free module: depth n in any characteristic
    for n in (1, 2, 3, 4):
        Q = QuotientPair(from_strs(n, "x1"), Ideal(n))
        for char in (0, 2, 3, 32003):
            assert depth(Q, field=char).depth == n


def test_depth_pinned_corpus_values():
    ex3 = parse_input(
        "n=5\nI = x1*x2, x1*x3, x2*x3, x1*x4, x3*x5\n"
        "J = x1*x2*x5, x1*x4*x5, x2*x3*x4, x3*x4*x5\n"
    )
    assert depth(ex3, field=0).depth == 3
    assert depth(ex3, field=2).depth == 3

    ex1 = parse_input("n=5\nI = x1*x2, x1*x3, x1*x4, x2*x3*x5\nJ = x2*x3*x4*x5\n")
    assert depth(ex1, 0).depth == 3

    bad = parse_input(
        "n=6\nI = x1, x2, x3, x4*x5, x5*x6\n"
        "J = x2*x4, x3*x4, x1*x6, x2*x6, x3*x6\n"
    )
    assert depth(bad, 0).depth == 2


def test_characteristic_dependence_projective_plane():
    # the 6-vertex triangulation of the real projective plane: its quotient
    # has depth 3 except in characteristic 2, where it drops to 2
    sr = RP2.J
    by_char = {c: depth(si_pair(sr), field=c).depth for c in (0, 2, 3, 32003)}
    assert by_char == {0: 3, 2: 2, 3: 3, 32003: 3}
    for c, val in by_char.items():
        assert reisner_depth_oracle(sr, field=c) == val


@pytest.mark.parametrize("engine, item, char", [
    ("depth", "path", 1),     # depth 3; an unchecked char 1 read 2
    ("depth", "pp2", 1),      # an unchecked char 1 read 0
    ("reisner", "pp2", 1),    # likewise
    ("depth", "pp2", 4),      # an unchecked char 4 raised a bare ValueError
    ("cache", "pp2", 4),
])
def test_field_overrides_check_the_characteristic(engine, item, char):
    Q = PATH if item == "path" else corpus.pair(item)
    run = {
        "depth": lambda: depth(Q, field=char),
        "reisner": lambda: reisner_depth_oracle(Q.J, field=char),
        "cache": lambda: EngineCache().depth(Q, field=char),
    }[engine]
    with pytest.raises(InputError, match="field characteristic"):
        run()


def test_witness_is_first_in_canonical_order():
    # deterministic tie-breaking: scanning multidegrees by (degree, vars)
    Q = parse_input("n=3\nI = x1, x2\nJ = x1*x2\n")
    res = depth(Q, 0)
    rescan = [
        a for a in _all_submasks(Q)
        if koszul_betti(Q, a, 0)[res.pd] > 0
    ]
    assert min(rescan, key=lambda m: (bin(m).count("1"), Monomial(m).vars)) \
        == res.witness_degree.mask


def _all_submasks(Q):
    active = 0
    for g in list(Q.I.gens) + list(Q.J.gens):
        active |= g.mask
    out = []
    a = active
    while True:
        out.append(a)
        if a == 0:
            break
        a = (a - 1) & active
    return out

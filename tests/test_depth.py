from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    from_strs,
    koszul_betti,
    nonsquarefree_koszul_sweep,
    proper_ideals,
    quotient_pairs,
    si_pair,
)
from sdepthlab import corpus
from sdepthlab.depth import DepthResult, _candidate_degrees, depth
from sdepthlab.engines import EngineCache
from sdepthlab.io import parse_input
from sdepthlab.monomials import Ideal, InputError, Monomial, QuotientPair
from sdepthlab.reisner import reisner_depth_oracle

PATH = parse_input("n=4\nI = x1*x2, x2*x3, x3*x4\nJ = 0\n")


@given(proper_ideals())
def test_koszul_matches_reisner_on_si_forms(I):
    for char in (0, 2):
        assert depth(si_pair(I, field=char)).depth == reisner_depth_oracle(I, field=char)


@given(proper_ideals(max_n=4))
@settings(max_examples=30)
def test_koszul_matches_reisner_char3(I):
    assert depth(si_pair(I, field=3)).depth == reisner_depth_oracle(I, field=3)


@given(quotient_pairs(normalized=False))
def test_depth_result_invariants(Q):
    res = depth(Q)
    assert isinstance(res, DepthResult)
    assert res.depth + res.pd == Q.ambient
    assert 0 <= res.depth <= Q.ambient
    assert res.witness_index == res.pd
    # the witness multidegree really carries nonzero Koszul homology
    assert koszul_betti(Q, res.witness_degree.mask, Q.field)[res.pd] > 0


@given(st.one_of(quotient_pairs(normalized=False), proper_ideals().map(si_pair)))
def test_homology_lies_in_the_lcm_candidates(Q):
    cands = set(_candidate_degrees(Q))
    for char in (0, 2, 3):
        for a in _all_submasks(Q):
            if any(koszul_betti(Q, a, char)):
                assert a in cands, (a, char)


@given(quotient_pairs(max_n=4))
@settings(max_examples=20)
def test_nonsquarefree_degrees_have_no_homology(Q):
    # depth reads squarefree multidegrees only, sound only if these carry none
    assert nonsquarefree_koszul_sweep(Q, Q.field) == []


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
    assert depth(ex1).depth == 3

    bad = parse_input(
        "n=6\nI = x1, x2, x3, x4*x5, x5*x6\n"
        "J = x2*x4, x3*x4, x1*x6, x2*x6, x3*x6\n"
    )
    assert depth(bad).depth == 2


def test_characteristic_dependence_projective_plane():
    # the 6-vertex triangulation of the real projective plane: its quotient
    # has depth 3 except in characteristic 2, where it drops to 2
    text = (
        "n=6\nI = 1\n"
        "J = x1*x2*x4, x1*x2*x5, x1*x3*x5, x1*x3*x6, x1*x4*x6, "
        "x2*x3*x4, x2*x3*x6, x2*x5*x6, x3*x4*x5, x4*x5*x6\n"
    )
    sr = parse_input(text).J
    by_char = {c: depth(si_pair(sr, field=c)).depth for c in (0, 2, 3, 32003)}
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
    res = depth(Q)
    rescan = [
        a for a in _all_submasks(Q)
        if koszul_betti(Q, a, Q.field)[res.pd] > 0
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

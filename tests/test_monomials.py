from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import as_pair, brute_poset_masks, from_strs, quotient_pairs
from sdepthlab.depth import depth
from sdepthlab.engines import EngineCache
from sdepthlab.fuzz import FuzzConfig, instance_rng, random_pair
from sdepthlab.hilbert import hdepth1_pair
from sdepthlab.monomials import (
    MAX_AMBIENT,
    AmbientMismatchError,
    EmptyQuotientError,
    Ideal,
    InputError,
    Monomial,
    QuotientPair,
    canonical_key,
    colon_pair,
    ideal_sum,
    indices_of,
    intersect,
    mask_of,
    minimalize,
    parse_monomial,
)
from sdepthlab.poset import PosetView, poset_bitset, poset_view, split_pair, strata, view_of
from sdepthlab.sdepth import sdepth

masks = st.integers(min_value=0, max_value=(1 << 6) - 1)


def test_monomial_basics():
    m = Monomial.of(2, 5)
    assert m.mask == 0b10010
    assert m.vars == (2, 5)
    assert m.degree == 2
    assert str(m) == "x2*x5"
    assert str(Monomial(0)) == "1"
    assert Monomial.of(1).divides(Monomial.of(1, 3))
    assert not Monomial.of(2).divides(Monomial.of(1, 3))
    assert Monomial.of(2, 7).max_index() == 7


def test_monomial_errors():
    with pytest.raises(InputError):
        Monomial(-1)
    with pytest.raises(InputError):
        Monomial.of(0)


def test_parse_monomial():
    assert parse_monomial("x2*x5") == Monomial.of(2, 5)
    assert parse_monomial(" x3 * x1 ") == Monomial.of(1, 3)
    assert parse_monomial("1") == Monomial(0)
    for bad in ("y2", "x", "x0", "xa", "x1**x2", ""):
        with pytest.raises(InputError):
            parse_monomial(bad)


@given(masks)
def test_parse_str_round_trip(mask):
    m = Monomial(mask)
    assert parse_monomial(str(m)) == m


@given(masks, masks)
def test_divides_is_subset(a, b):
    assert Monomial(a).divides(Monomial(b)) == (set(indices_of(a)) <= set(indices_of(b)))
    assert mask_of(indices_of(a)) == a


def _brute_minimal(masks_in: list[int]) -> set[int]:
    uniq = set(masks_in)
    return {
        m for m in uniq
        if not any(h != m and h & ~m == 0 for h in uniq)
    }


@given(st.lists(masks.filter(lambda m: m > 0), min_size=1, max_size=6))
def test_minimalization_matches_brute(gens):
    I = Ideal(6, [Monomial(m) for m in gens])
    assert {g.mask for g in I.gens} == _brute_minimal(gens)
    # antichain and canonical order
    for i, g in enumerate(I.gens):
        for h in I.gens[i + 1:]:
            assert not g.divides(h) and not h.divides(g)
            assert g.sort_key() < h.sort_key()


def test_canonical_key_orders_all_masks():
    every = range(1 << MAX_AMBIENT)
    assert sorted(every, key=canonical_key) == sorted(
        every, key=lambda m: (m.bit_count(), indices_of(m))
    )


@given(st.lists(masks, min_size=0, max_size=5), masks)
def test_membership_matches_brute(gens, probe):
    I = Ideal(6, [Monomial(m) for m in gens])
    expected = any(g & ~probe == 0 for g in set(gens))
    assert I.member(Monomial(probe)) == expected
    assert I.member_mask(probe) == expected


def test_ideal_constructor_errors():
    with pytest.raises(InputError):
        Ideal(0)
    with pytest.raises(InputError):
        Ideal(MAX_AMBIENT + 1)
    with pytest.raises(InputError):
        Ideal(2, [Monomial.of(3)])
    with pytest.raises(AmbientMismatchError):
        intersect(Ideal(2, [Monomial.of(1)]), Ideal(3, [Monomial.of(1)]))


def test_ideal_flags_and_str():
    assert Ideal(3).is_zero()
    assert str(Ideal(3)) == "0"
    assert Ideal(3, [Monomial(0)]).is_unit()
    assert from_strs(3, "x1*x2", "x1").gens == (Monomial.of(1),)
    assert minimalize(3, [Monomial.of(1), Monomial.of(1, 2)]).gens == (Monomial.of(1),)


@given(st.lists(masks, max_size=4), st.lists(masks, max_size=4), masks)
def test_intersect_and_sum_membership(ga, gb, probe):
    A = Ideal(6, [Monomial(m) for m in ga])
    B = Ideal(6, [Monomial(m) for m in gb])
    m = Monomial(probe)
    assert intersect(A, B).member(m) == (A.member(m) and B.member(m))
    assert ideal_sum(A, B).member(m) == (A.member(m) or B.member(m))


@given(st.lists(masks, max_size=5), st.lists(masks, max_size=5))
def test_ideals_keep_their_masks(ga, gb):
    A = Ideal(6, [Monomial(m) for m in ga])
    B = Ideal(6, [Monomial(m) for m in gb])
    for ideal in (A, B, intersect(A, B), ideal_sum(A, B)):
        assert ideal.gen_masks() == tuple(g.mask for g in ideal.gens)
        assert ideal.gen_masks() is ideal.gen_masks()
    assert (A == B) == (A.gen_masks() == B.gen_masks())
    again = Ideal(6, [Monomial(m) for m in reversed(ga)])
    assert again == A and hash(again) == hash(A)
    if A == B:
        assert hash(A) == hash(B)
    assert Ideal(5, A.gens[:0]) != Ideal(6, A.gens[:0])  # ambient counts


def test_colon_pair_range_error():
    Q = QuotientPair(from_strs(3, "x1"), Ideal(3))
    for j in (0, 4):
        with pytest.raises(InputError):
            colon_pair(Q, j)


def test_quotient_pair_validation():
    I = from_strs(3, "x1", "x2")
    with pytest.raises(InputError):
        QuotientPair(I, from_strs(3, "x3"))  # J not inside I
    with pytest.raises(EmptyQuotientError):
        QuotientPair(I, I)
    with pytest.raises(InputError):
        QuotientPair(Ideal(3), Ideal(3))  # zero I
    with pytest.raises(AmbientMismatchError):
        QuotientPair(I, Ideal(4))


def test_with_field_and_key():
    Q = QuotientPair(from_strs(3, "x1"), Ideal(3))
    # the pair carries no field: depth takes one, and the key is Q's in each
    assert not hasattr(Q, "field") and not hasattr(Q, "with_field")
    for char in (0, 2):
        got = depth(Q, char)
        assert (got.depth, got.field) == (3, char)
    same = QuotientPair(Q.I, Q.J)
    assert same == Q and same.key() == Q.key() == (3, (1,), ())
    assert QuotientPair(Q.I, from_strs(3, "x1*x2")) != Q


def _gens(I: Ideal, J: Ideal) -> tuple:
    return I.gen_masks(), J.gen_masks()


def _in_normal_form(P: PosetView) -> bool:
    """No generator of J' has degree <= d: the shape without a warning."""
    return all(m.bit_count() > P.d for m in P.gens[1])


def test_colon_pair():
    Q2 = QuotientPair(from_strs(3, "x1"), from_strs(3, "x1*x2"))
    assert colon_pair(Q2, 2) is None  # (J:x2) = (x1) = (I:x2)
    cp = colon_pair(Q2, 3)
    assert isinstance(cp, PosetView) and cp.ambient == 3
    assert cp.gens == _gens(Q2.I, Q2.J) and cp.bits == poset_view(Q2).bits


def test_split_pair():
    I = from_strs(3, "x1", "x2")
    Q = QuotientPair(I, from_strs(3, "x1*x2"))
    assert split_pair(Q, Q.I) == (Q, None)
    assert split_pair(Q, from_strs(3, "x2", "x1"))[0] is Q
    # P = {x1, x2, x1*x3, x2*x3}: the ends hold {x1, x1*x3} and {x2, x2*x3}
    A, C = split_pair(Q, from_strs(3, "x1"))
    assert A.gens == _gens(from_strs(3, "x1"), Q.J)
    assert C.gens == _gens(from_strs(3, "x2"), Q.J)
    # a subideal inside J has a zero first end, and a second end with Q's
    # poset and generators that is not Q
    A, C = split_pair(Q, from_strs(3, "x1*x2"))
    assert A is None and C is not Q
    assert (C.ambient, *C.gens) == Q.key() and C.bits == poset_view(Q).bits
    # a subideal holding all of P is a first end equal to the pair itself,
    # even where J + sub is not I
    Q2 = QuotientPair(I, from_strs(3, "x2"))
    assert split_pair(Q2, from_strs(3, "x1"))[0] is Q2
    # the ends of a pair with a warning are in normal form: x2 lies in J
    Q3 = QuotientPair(from_strs(3, "x1", "x2", "x3"), from_strs(3, "x2"))
    A, C = split_pair(Q3, from_strs(3, "x1"))
    assert A.gens == _gens(from_strs(3, "x1"), from_strs(3, "x1*x2"))
    assert C.gens == _gens(from_strs(3, "x3"), from_strs(3, "x1*x3", "x2*x3"))
    assert _in_normal_form(A) and _in_normal_form(C)
    with pytest.raises(AmbientMismatchError):
        split_pair(Q, from_strs(4, "x1"))


def _bits_of(I: Ideal, J: Ideal) -> int:
    """The poset of I/J by membership tests, 0 when J contains I."""
    return sum(1 << m for m in range(1 << I.ambient)
               if I.member_mask(m) and not J.member_mask(m))


def _check_derived(P, bits: int, Q: QuotientPair) -> None:
    """P is `view_of` the poset `bits` cut out of Q, or None when it is 0."""
    if not bits:
        assert P is None
        return
    # the generators of P, pair or view, give back its poset
    assert poset_view(P).bits == bits == poset_bitset(as_pair(P))
    if P is Q:
        return
    # normal form: I' is generated by P and J' by the members of I' outside P
    n = Q.ambient
    elements = [m for m in range(1 << n) if bits >> m & 1]
    I = Ideal(n, [Monomial(m) for m in elements])
    J = Ideal(n, [Monomial(m) for m in range(1 << n)
                  if I.member_mask(m) and not bits >> m & 1])
    assert isinstance(P, PosetView) and P.ambient == n
    assert P.gens == _gens(I, J) and _in_normal_form(P)
    assert P.d == min(m.bit_count() for m in elements)


@given(quotient_pairs(normalized=False), st.data())
def test_derived_pairs_match_ideal_arithmetic(Q, data):
    n = Q.ambient
    for t in range(1, n + 1):
        x = Monomial.of(t)
        # (I:x_t) divides each generator by x_t where it can
        Ic = Ideal(n, [Monomial(g.mask & ~x.mask) for g in Q.I.gens])
        Jc = Ideal(n, [Monomial(g.mask & ~x.mask) for g in Q.J.gens])
        _check_derived(colon_pair(Q, t), _bits_of(Ic, Jc), Q)
        xt = Ideal(n, [x])
        A, C = split_pair(Q, xt)
        It = intersect(Q.I, xt)
        _check_derived(A, _bits_of(It, intersect(Q.J, It)), Q)
        _check_derived(C, _bits_of(Q.I, ideal_sum(Q.J, It)), Q)
    inside = [m for m in range(1 << n) if Q.I.member_mask(m)]
    sub = Ideal(n, [Monomial(m) for m in data.draw(
        st.lists(st.sampled_from(inside), min_size=1, max_size=3))])
    A, C = split_pair(Q, sub)
    _check_derived(A, _bits_of(sub, intersect(Q.J, sub)), Q)
    _check_derived(C, _bits_of(Q.I, ideal_sum(Q.J, sub)), Q)


def _pool_pair(idx: int) -> QuotientPair:
    """Pair `idx` of the criterion-9 stream pool (seed 2026, n = 6)."""
    cfg = FuzzConfig(n=6, seed=2026)
    return random_pair(instance_rng(cfg.seed, idx), cfg)


# pool pairs with a generator of I inside J, whose generators use more
# variables than their normal form does
@example(_pool_pair(336))
@example(_pool_pair(350))
@example(_pool_pair(904))
@example(_pool_pair(955))
@given(quotient_pairs(normalized=False))
def test_view_of_its_poset_keeps_every_invariant(Q):
    # every derived view stands for its module by this: the normal form of
    # the input's poset gives the input's answers, certificates, witnesses
    # and free variables included
    bits = sum(1 << m for m in brute_poset_masks(Q))
    P = view_of(Q.ambient, bits)
    assert view_of(Q.ambient, 0) is None
    assert _in_normal_form(P)
    N = as_pair(P)
    assert N.J == intersect(N.I, Q.J)
    for char in (0, 2, 3):
        got, want = depth(P, field=char), depth(Q, field=char)
        assert got.to_json() == want.to_json()
        assert (got.gf2 is None) == (want.gf2 is None) == (char != 0)
        if char == 0:
            assert got.gf2.to_json() == want.gf2.to_json()
    assert sdepth(P).to_json() == sdepth(Q).to_json()
    assert hdepth1_pair(P) == hdepth1_pair(Q)
    assert strata(P) == strata(Q)


@given(quotient_pairs(normalized=False), quotient_pairs(normalized=False))
def test_equality_and_hash_are_those_of_key(Q, R):
    assert Q.key() == (Q.ambient, Q.I.gen_masks(), Q.J.gen_masks())
    same = QuotientPair(Q.I, Q.J)
    assert same == Q and hash(same) == hash(Q) == hash(Q.key())
    # the normal form has Q's poset, but is equal to Q only with its generators
    P = view_of(Q.ambient, poset_view(Q).bits)
    N = as_pair(P)
    assert N.key() == (P.ambient, *P.gens)
    for other in (N, R):
        assert (other == Q) == (other.key() == Q.key())
        assert hash(other) == hash(other.key())


@given(quotient_pairs(normalized=False), st.sampled_from((0, 2, 3, 32003)))
def test_key_is_the_generator_masks_in_every_field(Q, char):
    assert Q.key() == (Q.ambient, Q.I.gen_masks(), Q.J.gen_masks())
    cache = EngineCache()
    got = cache.depth(Q, char)
    assert got.field == char
    # an equal pair built again reads the same entry in that field
    assert cache.depth(QuotientPair(Q.I, Q.J), char) is got


@given(quotient_pairs(normalized=False))
def test_random_pairs_are_valid(Q):
    assert Q.I.contains_ideal(Q.J)
    assert not Q.J.contains_ideal(Q.I)

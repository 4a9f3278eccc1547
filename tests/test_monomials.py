from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import from_strs, quotient_pairs
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
    split_pair,
)

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
    assert Monomial.of(1, 2).lcm(Monomial.of(2, 3)) == Monomial.of(1, 2, 3)
    assert Monomial.of(1, 2).gcd(Monomial.of(2, 3)) == Monomial.of(2)
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


@given(masks, masks)
def test_lcm_gcd_identities(a, b):
    x, y = Monomial(a), Monomial(b)
    assert x.lcm(y) == y.lcm(x)
    assert x.gcd(y).divides(x)
    assert x.divides(x.lcm(y))
    assert x.lcm(x.gcd(y)) == x  # absorption
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
        Ideal(2, [Monomial.of(1)]).intersect(Ideal(3, [Monomial.of(1)]))


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


@given(st.lists(masks.filter(lambda m: m > 0), min_size=1, max_size=4),
       masks, st.integers(min_value=1, max_value=6))
def test_colon_var_membership(gens, probe, j):
    I = Ideal(6, [Monomial(m) for m in gens])
    colon = I.colon_var(j)
    assert colon.member_mask(probe) == I.member_mask(probe | (1 << (j - 1)))


@given(st.lists(masks, max_size=5), st.lists(masks, max_size=5),
       st.integers(min_value=1, max_value=6))
def test_ideals_keep_their_masks(ga, gb, j):
    A = Ideal(6, [Monomial(m) for m in ga])
    B = Ideal(6, [Monomial(m) for m in gb])
    for ideal in (A, B, A.colon_var(j), intersect(A, B), ideal_sum(A, B)):
        assert ideal.gen_masks() == tuple(g.mask for g in ideal.gens)
        assert ideal.gen_masks() is ideal.gen_masks()
    assert (A == B) == (A.gen_masks() == B.gen_masks())
    again = Ideal(6, [Monomial(m) for m in reversed(ga)])
    assert again == A and hash(again) == hash(A)
    if A == B:
        assert hash(A) == hash(B)
    assert Ideal(5, A.gens[:0]) != Ideal(6, A.gens[:0])  # ambient counts


def test_colon_var_range_error():
    with pytest.raises(InputError):
        Ideal(3, [Monomial.of(1)]).colon_var(4)


def test_quotient_pair_validation():
    I = from_strs(3, "x1", "x2")
    with pytest.raises(InputError):
        QuotientPair(I, from_strs(3, "x3"))  # J not inside I
    with pytest.raises(EmptyQuotientError):
        QuotientPair(I, I)
    with pytest.raises(InputError):
        QuotientPair(Ideal(3), Ideal(3))  # zero I
    with pytest.raises(InputError):
        QuotientPair(I, Ideal(3), field=5)
    with pytest.raises(AmbientMismatchError):
        QuotientPair(I, Ideal(4))


def test_normalization_warning():
    I = from_strs(3, "x1", "x2")
    assert QuotientPair(I, from_strs(3, "x2")).normalization_warning
    assert not QuotientPair(I, from_strs(3, "x1*x2")).normalization_warning
    assert not QuotientPair(I, Ideal(3)).normalization_warning


def test_with_field_and_key():
    Q = QuotientPair(from_strs(3, "x1"), Ideal(3))
    Q2 = Q.with_field(2)
    assert Q2.field == 2 and Q2.key() == Q.key()
    assert Q.with_field(0) is Q
    assert Q != Q2  # field participates in equality
    assert QuotientPair(Q.I, Q.J) == Q


def test_colon_pair():
    Q2 = QuotientPair(from_strs(3, "x1"), from_strs(3, "x1*x2"))
    assert colon_pair(Q2, 2) is None  # (J:x2) = (x1) = (I:x2)
    cp = colon_pair(Q2, 3)
    assert cp is not None and cp.I == Q2.I and cp.J == Q2.J


def test_split_pair():
    I = from_strs(3, "x1", "x2")
    Q = QuotientPair(I, from_strs(3, "x1*x2"), field=2)
    assert split_pair(Q, Q.I) == (Q, None)
    assert split_pair(Q, from_strs(3, "x2", "x1"))[0] is Q
    A, C = split_pair(Q, from_strs(3, "x1"))
    assert (A.I, A.J, A.field) == (from_strs(3, "x1"), Q.J, 2)
    assert (C.I, C.J, C.field) == (I, from_strs(3, "x1"), 2)
    # a subideal inside J has a zero first end
    A, C = split_pair(Q, from_strs(3, "x1*x2"))
    assert A is None and C == Q and C is not Q
    # J + sub = I gives a zero last end
    Q2 = QuotientPair(I, from_strs(3, "x2"))
    A, C = split_pair(Q2, from_strs(3, "x1"))
    assert (A.I, A.J, C) == (from_strs(3, "x1"), from_strs(3, "x1*x2"), None)


@given(quotient_pairs(normalized=False), st.sampled_from((0, 2, 3, 32003)))
def test_key_is_the_generator_masks_in_every_field(Q, char):
    assert Q.key() == (Q.ambient, Q.I.gen_masks(), Q.J.gen_masks())
    assert Q.with_field(char).key() == Q.key()


@given(quotient_pairs(normalized=False))
def test_random_pairs_are_valid(Q):
    assert Q.I.contains_ideal(Q.J)
    assert not Q.J.contains_ideal(Q.I)
    d = min(g.degree for g in Q.I.gens)
    assert Q.normalization_warning == any(g.degree <= d for g in Q.J.gens)

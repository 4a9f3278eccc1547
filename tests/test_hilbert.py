from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_monomial_count,
    expand_series,
    from_strs,
    quotient_pairs,
    rename_pair,
    si_pair,
    unit_ideal,
)
from sdepthlab.hilbert import (
    HdepthResult,
    HilbertSeries,
    colon_refuter,
    hdepth1,
    hdepth1_pair,
    herzog_question,
    hilbert_series,
)
from sdepthlab.monomials import Ideal, InputError, Monomial, QuotientPair, colon_pair
from sdepthlab.sdepth import sdepth, sdepth_decide


@given(quotient_pairs(max_n=4, normalized=False))
@settings(max_examples=40)
def test_series_counts_monomials(Q):
    H = hilbert_series(Q)
    assert H.denom_exp == Q.ambient
    for k in range(0, 7):
        assert H.coefficient(k) == brute_monomial_count(Q, k)


@given(quotient_pairs(max_n=4, normalized=False))
@settings(max_examples=40)
def test_hdepth_certified_by_expansion(Q):
    n = Q.ambient
    H = hilbert_series(Q)
    res = hdepth1_pair(Q)
    assert res == hdepth1(H)
    horizon = len(H.k_poly) + n + 25
    # nonnegative through the claimed value
    assert all(c >= 0 for c in expand_series(H.k_poly, n - res.value, horizon))
    if res.value == n:
        assert res.failing_coefficient is None
    else:
        idx = res.failing_coefficient
        assert idx is not None
        expanded = expand_series(H.k_poly, n - res.value - 1, max(horizon, idx))
        assert expanded[idx] < 0


@given(quotient_pairs(max_n=4))
@settings(max_examples=30)
def test_hdepth_dominates_sdepth(Q):
    # sdepth() stops at hdepth1, so check the bound with the search alone
    hd = hdepth1_pair(Q).value
    assert hd >= sdepth(Q).value
    if hd < Q.ambient:
        assert sdepth_decide(Q, hd + 1) is None


def test_hdepth1_computed_once_per_pair(monkeypatch):
    import sdepthlab.hilbert as hilbert_mod
    from sdepthlab.engines import EngineCache

    calls = []
    original = hilbert_mod.hdepth1

    def counted(H):
        calls.append(H)
        return original(H)

    monkeypatch.setattr(hilbert_mod, "hdepth1", counted)
    Q = QuotientPair(from_strs(4, "x1*x2", "x3"), from_strs(4, "x1*x2*x3"))
    res = sdepth(Q)
    assert EngineCache().hdepth(Q) == hdepth1_pair(Q)
    assert res.value <= hdepth1_pair(Q).value
    assert len(calls) == 1


def gapped_pair(n: int) -> QuotientPair:
    """I = (x4, x2*x5*x10), J = (x4*x_j : j != 4): layer counts 1 in degree 1,
    none in degree 2, then binom(n-4, e-3) in each degree e >= 3."""
    I = Ideal(n, [Monomial.of(4), Monomial.of(2, 5, 10)])
    J = Ideal(n, [Monomial.of(4, j) for j in range(1, n + 1) if j != 4])
    return QuotientPair(I, J)


@pytest.mark.parametrize("n", range(10, 17))
def test_hdepth1_of_a_gapped_pair(n):
    # an empty layer between nonempty ones, at every n up to the largest
    assert hdepth1_pair(gapped_pair(n)) == HdepthResult(value=1, failing_coefficient=2)


@st.composite
def layer_counts(draw) -> tuple[int, list[int]]:
    """An ambient n <= 16 and counts α_0..α_n >= 0, zero layers allowed."""
    n = draw(st.integers(min_value=1, max_value=16))
    return n, [draw(st.one_of(st.just(0), st.integers(0, comb(n, e))))
               for e in range(n + 1)]


@given(layer_counts())
@settings(max_examples=80)
def test_hdepth1_from_layer_counts_matches_expansion(counts):
    n, alpha = counts
    k_poly = [0] * (n + 1)
    for e, a in enumerate(alpha):
        for i in range(n - e + 1):
            k_poly[e + i] += a * (-1) ** i * comb(n - e, i)
    res = hdepth1(HilbertSeries(n, tuple(k_poly)))
    horizon = 3 * n + 25
    assert min(expand_series(tuple(k_poly), n - res.value, horizon)) >= 0
    if res.value == n:
        assert res.failing_coefficient is None
    else:
        above = expand_series(tuple(k_poly), n - res.value - 1, horizon)
        first = next(i for i, c in enumerate(above) if c < 0)
        assert first == res.failing_coefficient


@pytest.mark.parametrize("H", [HilbertSeries(1, (1, 0, -1)), HilbertSeries(2, (1, -3))])
def test_hdepth1_rejects_series_without_layer_counts(H):
    # deg K > n, and a negative count α_1 = 2 - 3
    with pytest.raises(InputError):
        hdepth1(H)


def test_polynomial_ring_series():
    Q = QuotientPair(unit_ideal(3), Ideal(3))
    H = hilbert_series(Q)
    assert H.k_poly == (1,)
    assert [H.coefficient(k) for k in range(4)] == [1, 3, 6, 10]
    assert hdepth1(H) == HdepthResult(value=3, failing_coefficient=None)


def test_maximal_ideal_n2():
    Q = QuotientPair(from_strs(2, "x1", "x2"), Ideal(2))
    H = hilbert_series(Q)
    assert H.k_poly == (0, 2, -1)  # 2t - t^2
    assert [H.coefficient(k) for k in range(4)] == [0, 2, 3, 4]
    assert hdepth1(H) == HdepthResult(value=1, failing_coefficient=2)


def test_series_addition():
    n = 3
    m_pair = QuotientPair(
        Ideal(n, [Monomial.of(i) for i in range(1, n + 1)]), Ideal(n)
    )
    h_m = hilbert_series(m_pair)
    s = HilbertSeries(n, (1,))
    total = s + h_m
    for k in range(8):
        assert total.coefficient(k) == h_m.coefficient(k) + comb(k + n - 1, n - 1)
    with pytest.raises(InputError):
        s + HilbertSeries(n + 1, (1,))


def test_herzog_comparison_table():
    equal_ns = {1, 2, 3, 4, 5, 7, 9, 11}
    for n in range(1, 13):
        row = herzog_question(n)
        assert set(row) == {"n", "hdepth_m", "hdepth_s_plus_m", "equal"}
        assert row["n"] == n
        assert row["equal"] == (n in equal_ns)
        assert row["equal"] == (row["hdepth_m"] == row["hdepth_s_plus_m"])
    n6 = herzog_question(6)
    assert (n6["hdepth_m"], n6["hdepth_s_plus_m"]) == (3, 4)
    for bad_n in (0, 13):
        with pytest.raises(InputError):
            herzog_question(bad_n)


def test_si_form_series_matches_counts():
    I = from_strs(4, "x1*x2", "x3*x4")
    Q = si_pair(I)
    H = hilbert_series(Q)
    for k in range(6):
        assert H.coefficient(k) == brute_monomial_count(Q, k)
    assert H.coefficient(0) == 1


@given(quotient_pairs(max_n=6, normalized=False))
@settings(max_examples=80)
def test_colon_refuter_reads_every_colon_hdepth1(Q):
    # each colon checked on its own pair, series and hdepth1; swapping x_1
    # and x_j makes x_j the first variable the refuter reads
    n = Q.ambient
    colon_hd = {}
    for j in range(1, n + 1):
        C = colon_pair(Q, j)
        if C is not None:
            colon_hd[j] = hdepth1_pair(C).value
    for p in range(n + 3):
        assert colon_refuter(Q, p) == next(
            (j for j, hd in colon_hd.items() if hd < p), None)
    for j, hd in colon_hd.items():
        swapped = rename_pair(Q, n, {i: {1: j, j: 1}.get(i, i) for i in range(1, n + 1)})
        for p in range(n + 3):
            assert (colon_refuter(swapped, p) == 1) == (hd < p)


@given(quotient_pairs(max_n=6, normalized=False))
@settings(max_examples=40)
def test_colon_refuter_answers_bound_sdepth(Q):
    value = sdepth(Q).value
    for k in range(Q.ambient + 3):
        if colon_refuter(Q, k) is not None:
            assert value < k

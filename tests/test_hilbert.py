from __future__ import annotations

import runpy
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_monomial_count,
    expand_series,
    first_negative_beta_closed,
    from_strs,
    quotient_pairs,
    rename_pair,
    si_pair,
    unit_ideal,
)
from sdepthlab import poset
from sdepthlab.fuzz import FuzzConfig, instance_rng, random_pair
from sdepthlab.hilbert import (
    _first_negative_beta,
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
    assert expand_series(H.k_poly, H.denom_exp, 6) == [
        brute_monomial_count(Q, k) for k in range(7)]


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
    original = hilbert_mod._hdepth1_of_counts

    def counted(alpha):
        calls.append(alpha)
        return original(alpha)

    # one β check per view, on the pair's layer counts
    monkeypatch.setattr(hilbert_mod, "_hdepth1_of_counts", counted)
    Q = QuotientPair(from_strs(4, "x1*x2", "x3"), from_strs(4, "x1*x2*x3"))
    res = sdepth(Q)
    assert EngineCache().hdepth(Q) == hdepth1_pair(Q)
    assert res.value <= hdepth1_pair(Q).value
    assert calls == [poset.layer_counts(Q)]


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


@given(st.lists(st.integers(0, 60), min_size=1, max_size=14), st.integers(0, 18))
@settings(max_examples=150)
def test_horner_beta_matches_the_binomial_sum(alpha, p):
    # p may run past the counts, as the colon refuter's k > n does
    assert _first_negative_beta(alpha, p) == first_negative_beta_closed(alpha, p)


def test_horner_beta_matches_the_binomial_sum_on_the_pool_pairs():
    # the layer counts of perfbench's stream pool (seed 2026, n = 6) and
    # sdepth_hard seed-99 pool (n = 8, 9, 10), at every p through n + 2
    pairs = [random_pair(instance_rng(2026, i), FuzzConfig(n=6, seed=2026))
             for i in range(1000)]
    for n in (8, 9, 10):
        cfg = FuzzConfig(n=n, seed=99, max_gens=5, max_degree=3)
        pairs += [random_pair(instance_rng(99, i), cfg) for i in range(30)]
    negatives = 0
    for Q in pairs:
        alpha = poset.layer_counts(Q)
        for p in range(Q.ambient + 3):
            got = _first_negative_beta(alpha, p)
            assert got == first_negative_beta_closed(alpha, p)
            negatives += got is not None
    assert negatives > 1000


@pytest.mark.parametrize("H", [HilbertSeries(1, (1, 0, -1)), HilbertSeries(2, (1, -3))])
def test_hdepth1_rejects_series_without_layer_counts(H):
    # deg K > n, and a negative count α_1 = 2 - 3
    with pytest.raises(InputError):
        hdepth1(H)


def test_polynomial_ring_series():
    Q = QuotientPair(unit_ideal(3), Ideal(3))
    H = hilbert_series(Q)
    assert H.k_poly == (1,)
    assert expand_series(H.k_poly, H.denom_exp, 3) == [1, 3, 6, 10]
    assert hdepth1(H) == HdepthResult(value=3, failing_coefficient=None)


def test_maximal_ideal_n2():
    Q = QuotientPair(from_strs(2, "x1", "x2"), Ideal(2))
    H = hilbert_series(Q)
    assert H.k_poly == (0, 2, -1)  # 2t - t^2
    assert expand_series(H.k_poly, H.denom_exp, 3) == [0, 2, 3, 4]
    assert hdepth1(H) == HdepthResult(value=1, failing_coefficient=2)


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


def test_herzog_table_script(capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "herzog_table.py"
    main = runpy.run_path(str(script))["main"]
    assert main(["--max-n", "7"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [str(n) for n in range(1, 8)]
    assert rows[5] == ["6", "3", "4", "NO"]
    with pytest.raises(SystemExit) as exit_info:
        main(["--max-n", "13"])
    assert exit_info.value.code == 2


def test_si_form_series_matches_counts():
    I = from_strs(4, "x1*x2", "x3*x4")
    Q = si_pair(I)
    H = hilbert_series(Q)
    counts = expand_series(H.k_poly, H.denom_exp, 5)
    assert counts == [brute_monomial_count(Q, k) for k in range(6)]
    assert counts[0] == 1


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

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    ascending_sdepth,
    brute_poset_masks,
    from_strs,
    quotient_pairs,
    rename_pair,
    restrict_to_support,
)
from sdepthlab.depth import depth
from sdepthlab.fuzz import FuzzConfig, instance_rng, random_pair
from sdepthlab.hilbert import hdepth1_pair
from sdepthlab.io import parse_input
from sdepthlab.monomials import Ideal, InputError, Monomial, QuotientPair
from sdepthlab.poset import interval_bits, poset_bitset, poset_view
import sdepthlab.sdepth as sdepth_module
from sdepthlab.sdepth import (
    Interval,
    MalformedIntervalError,
    Partition,
    brute_force_sdepth,
    sdepth,
    sdepth_decide,
    verify_partition,
)


def test_interval_basics():
    iv = Interval(Monomial.of(1), Monomial.of(1, 2, 3))
    members = interval_bits(iv.lo.mask, iv.hi.mask)
    assert members == sum(1 << m for m in (0b001, 0b011, 0b101, 0b111))
    assert (members >> Monomial.of(1, 3).mask) & 1
    assert not (members >> Monomial.of(2).mask) & 1
    assert str(iv) == "[x1, x1*x2*x3]"
    with pytest.raises(MalformedIntervalError):
        Interval(Monomial.of(2), Monomial.of(1, 3))


def test_partition_value_and_json():
    P = Partition((
        Interval(Monomial.of(1), Monomial.of(1, 2)),
        Interval(Monomial.of(3), Monomial.of(1, 2, 3)),
    ))
    assert P.sdepth_value == 2
    assert len(P.intervals) == 2
    assert P.to_json() == [["x1", "x1*x2"], ["x3", "x1*x2*x3"]]
    assert Partition(()).sdepth_value == 0


def test_verify_partition_offenders():
    Q = QuotientPair(from_strs(2, "x1"), Ideal(2))  # poset: x1, x1*x2
    ok = verify_partition(Q, Partition((
        Interval(Monomial.of(1), Monomial.of(1, 2)),
    )))
    assert ok and bool(ok) and ok.offender is None

    missing = verify_partition(Q, Partition((
        Interval(Monomial.of(1), Monomial.of(1)),
    )))
    assert not missing
    assert missing.reason == "monomial not covered"
    assert missing.offender == Monomial.of(1, 2)

    doubled = verify_partition(Q, Partition((
        Interval(Monomial.of(1), Monomial.of(1, 2)),
        Interval(Monomial.of(1, 2), Monomial.of(1, 2)),
    )))
    assert not doubled
    assert doubled.reason == "monomial doubly covered"
    assert doubled.offender == Monomial.of(1, 2)

    outside = verify_partition(Q, Partition((
        Interval(Monomial.of(2), Monomial.of(1, 2)),
    )))
    assert not outside
    assert outside.reason == "interval endpoint outside the poset"
    assert outside.offender == Monomial.of(2)


@given(quotient_pairs(normalized=False))
def test_sdepth_certificate_verifies(Q):
    res = sdepth(Q)
    assert verify_partition(Q, res.certificate)
    assert res.certificate.sdepth_value == res.value
    d = min(Monomial(m).degree for m in brute_poset_masks(Q))
    assert d <= res.value <= Q.ambient
    if res.refuted_k is not None:
        assert res.refuted_k == res.value + 1
        assert res.refuted_by in ("hdepth1", "search")
        assert sdepth_decide(Q, res.refuted_k) is None
    else:
        assert res.value == Q.ambient
        assert res.refuted_by is None


@given(quotient_pairs(max_n=4))
@settings(max_examples=30)
def test_decision_is_monotone(Q):
    res = sdepth(Q)
    d = poset_view(Q).d
    for k in range(d, res.value + 1):
        cert = sdepth_decide(Q, k)
        assert cert is not None
        assert verify_partition(Q, cert)
        assert cert.sdepth_value >= k


def test_solver_matches_brute_force_stream():
    cfg = FuzzConfig(n=5, count=1, seed=0, max_gens=4, max_degree=4)
    checked = 0
    idx = 0
    while checked < 150:
        Q = random_pair(instance_rng(12345, idx), cfg)
        idx += 1
        if poset_bitset(Q).bit_count() > 12:
            continue
        assert sdepth(Q).value == brute_force_sdepth(Q)
        checked += 1


@given(quotient_pairs(max_n=5, normalized=False))
@settings(max_examples=60)
def test_decide_matches_brute_force_at_every_k(Q):
    view = poset_view(Q)
    assume(len(view.elements) <= 14)
    best = brute_force_sdepth(Q)
    for k in range(view.d, Q.ambient + 1):
        assert (sdepth_decide(Q, k) is not None) == (best >= k)


# seeded pairs (FuzzConfig seeds 1..6, posets of 6..12 elements) whose first
# search branch fails, so the answer needs an interval taken back; a search
# that keeps a taken-back interval's cover answers one less on each
BACKTRACKING_PAIRS = [
    "n=4\nI = x1, x2*x3, x2*x4\nJ = 0\n",
    "n=4\nI = x1*x2, x1*x4, x2*x3, x2*x4\nJ = 0\n",
    "n=4\nI = x1, x2, x4\nJ = x1*x4, x2*x3, x3*x4\n",
    "n=5\nI = x1*x5, x2*x3*x5, x2*x4*x5\nJ = 0\n",
    "n=5\nI = x1*x2, x2*x3*x4, x2*x3*x5, x1*x3*x4*x5\nJ = 0\n",
    "n=6\nI = x3*x6, x1*x4*x6, x2*x4*x6\n"
    "J = x2*x3*x6, x1*x4*x5*x6, x2*x4*x5*x6\n",
]


@pytest.mark.parametrize("text", BACKTRACKING_PAIRS,
                         ids=lambda text: text.split("\n")[1][len("I = "):])
def test_backtracking_pairs_match_brute_force(text):
    Q = parse_input(text)
    best = brute_force_sdepth(Q)
    assert sdepth(Q).value == best
    for k in range(poset_view(Q).d, Q.ambient + 1):
        cert = sdepth_decide(Q, k)
        assert (cert is not None) == (best >= k)
        assert cert is None or verify_partition(Q, cert)


def test_hdepth1_refutations_hold_unpruned():
    # every k+1 that the hdepth1 ceiling refutes is refuted by the search too
    cfg = FuzzConfig(n=6, seed=2026)
    by_hdepth = 0
    for idx in range(200):
        Q = random_pair(instance_rng(cfg.seed, idx), cfg)
        res = sdepth(Q)
        if res.refuted_by == "hdepth1":
            by_hdepth += 1
            assert sdepth_decide(Q, res.value + 1) is None
    assert by_hdepth > 0


def _maximal_ideal(n: int) -> QuotientPair:
    return QuotientPair(Ideal(n, [Monomial.of(i) for i in range(1, n + 1)]), Ideal(n))


@pytest.mark.parametrize("n", [8, 9, 14])
def test_sdepth_of_maximal_ideal(n):
    # sdepth(m_n) = ceil(n/2) (Biró–Howard–Keller–Trotter–Young); the k = 7
    # certificate of m_14 chooses 1 715 intervals, more than Python's
    # recursion limit, so the search keeps its own stack
    Q = _maximal_ideal(n)
    res = sdepth(Q)
    assert res.value == (n + 1) // 2
    assert res.refuted_by == "hdepth1"
    assert verify_partition(Q, res.certificate)


def test_search_answers_match_the_recorded_answers():
    # every value, certificate and refuter on m_5..m_13 and on the seed-99
    # pairs of perfbench's sdepth_hard pool (indices 0..29 at n = 8, 9, 10)
    pairs = [_maximal_ideal(n) for n in range(5, 14)]
    for n in (8, 9, 10):
        cfg = FuzzConfig(n=n, seed=99, max_gens=5, max_degree=3)
        pairs += [random_pair(instance_rng(99, i), cfg) for i in range(30)]
    h = hashlib.sha256()
    for Q in pairs:
        h.update((json.dumps(sdepth(Q).to_json(), sort_keys=True) + "\n").encode())
    assert h.hexdigest() == (
        "b0fbde8b465156c2c65809c08af0bcede19c47c5cfa0b25f4ca4e7f63878d23a"
    )


def test_dead_low_refutes_before_any_interval(monkeypatch):
    # P = {x1, x2, x1*x3}: at k = 2 the low x2 lies under no top, so the
    # root's dead-low test answers before x1's top x1*x3 is tried
    calls = []
    real = sdepth_module.interval_bits
    monkeypatch.setattr(sdepth_module, "interval_bits",
                        lambda lo, hi: calls.append((lo, hi)) or real(lo, hi))
    Q = parse_input("n=3\nI = x1, x2\nJ = x1*x2, x2*x3\n")
    assert sdepth_decide(Q, 2) is None
    assert calls == []
    assert sdepth(Q).value == 1


def test_hard_refutation_computes_each_interval_at_most_twice(monkeypatch):
    # seed-99 n=10 #10 refutes k = 8 by choosing and taking back 29 771
    # intervals among 213 (low, top) pairs, whose bits the search computed
    # 134 104 times when it computed them at every try; now each pair is
    # computed on its first try and on its first retry, then kept
    calls = []
    real = sdepth_module.interval_bits
    monkeypatch.setattr(sdepth_module, "interval_bits",
                        lambda lo, hi: calls.append((lo, hi)) or real(lo, hi))
    cfg = FuzzConfig(n=10, seed=99, max_gens=5, max_degree=3)
    Q = random_pair(instance_rng(99, 10), cfg)
    assert sdepth_decide(Q, 8) is None
    counts = {pair: calls.count(pair) for pair in set(calls)}
    assert len(counts) == 213
    assert max(counts.values()) == 2
    assert len(calls) == 411


def test_brute_force_limit_guard():
    Q = QuotientPair(from_strs(5, "x1"), Ideal(5))  # 16 poset elements
    with pytest.raises(InputError):
        brute_force_sdepth(Q, limit=14)
    assert brute_force_sdepth(Q, limit=16) == 5


def test_sdepth_pinned_corpus_values():
    ex1 = parse_input("n=5\nI = x1*x2, x1*x3, x1*x4, x2*x3*x5\nJ = x2*x3*x4*x5\n")
    res = sdepth(ex1)
    assert res.value == 3 and res.refuted_k == 4
    assert sdepth_decide(ex1, 4) is None

    bad = parse_input(
        "n=6\nI = x1, x2, x3, x4*x5, x5*x6\n"
        "J = x2*x4, x3*x4, x1*x6, x2*x6, x3*x6\n"
    )
    assert sdepth(bad).value == 2

    ex3 = parse_input(
        "n=5\nI = x1*x2, x1*x3, x2*x3, x1*x4, x3*x5\n"
        "J = x1*x2*x5, x1*x4*x5, x2*x3*x4, x3*x4*x5\n"
    )
    assert sdepth(ex3).value == 3



# -- free variables: each one adds exactly one ---------------------------------

@st.composite
def padded_pairs(draw):
    """(Q, Q in f more variables interleaved among its own, f)."""
    Q = draw(quotient_pairs(normalized=False))
    f = draw(st.integers(min_value=1, max_value=3))
    n = Q.ambient + f
    slots = sorted(draw(st.permutations(range(1, n + 1)))[:Q.ambient])
    return Q, rename_pair(Q, n, dict(enumerate(slots, 1))), f


@given(padded_pairs())
@settings(max_examples=60)
def test_padding_adds_one_per_free_variable(case):
    Q, P, f = case
    res, padded = sdepth(Q), sdepth(P)
    assert padded.value == res.value + f
    assert padded.free == res.free + f
    assert padded.refuted_by == res.refuted_by
    if res.refuted_k is None:
        assert padded.refuted_k is None
    else:
        assert padded.refuted_k == res.refuted_k + f
    assert verify_partition(P, padded.certificate)
    assert padded.certificate.sdepth_value == padded.value


@given(padded_pairs())
@settings(max_examples=40)
def test_decide_on_padded_pairs_matches_the_unpadded_pair(case):
    Q, P, f = case
    d = poset_view(Q).d
    for k in range(d, P.ambient + 1):
        cert = sdepth_decide(P, k)
        if k - f < d:
            assert cert is not None
        else:
            assert (cert is None) == (sdepth_decide(Q, k - f) is None)
        if cert is not None:
            assert verify_partition(P, cert)
            assert cert.sdepth_value >= k


def test_decide_with_free_variables_searches_the_support():
    # x9 and x10 are free: deciding k = 8 is deciding 6 on x1..x8, which the
    # search over all of P_{I\J} at n = 10 did not finish in 15 s
    Q = parse_input("n=10\nI = x3, x1*x4, x2*x6, x5*x7*x8\nJ = 0\n")
    assert sdepth(Q).value == 8
    cert = sdepth_decide(Q, 8)
    assert cert is not None and verify_partition(Q, cert)
    assert sdepth_decide(Q, 9) is None
    # k - 2 < d = 1 and k - 2 = d both answer with the lifted value-d partition
    assert sdepth_decide(Q, 2) == sdepth_decide(Q, 3)


def _count_decisions(monkeypatch) -> list[tuple[int, int]]:
    """The (ambient, k) of every sdepth_decide call that sdepth makes."""
    calls = []
    real = sdepth_module.sdepth_decide

    def counted(Q, k):
        calls.append((Q.ambient, k))
        return real(Q, k)

    monkeypatch.setattr(sdepth_module, "sdepth_decide", counted)
    return calls


def test_search_decides_through_sdepth_decide(monkeypatch):
    # sdepth's k-loop calls the public sdepth_decide, once per k from the
    # hdepth1 ceiling down to the first yes, on the pair restricted to its
    # support (x9, x10 free in the first, which reaches its ceiling 6)
    calls = _count_decisions(monkeypatch)
    free = parse_input("n=10\nI = x3, x1*x4, x2*x6, x5*x7*x8\nJ = 0\n")
    assert sdepth(free).value == 8
    assert calls == [(8, 6)]
    calls.clear()
    ex1 = parse_input("n=5\nI = x1*x2, x1*x3, x1*x4, x2*x3*x5\nJ = x2*x3*x4*x5\n")
    assert sdepth(ex1).value == 3
    assert calls == [(5, 4), (5, 3)]


def test_stream_pool_costs_one_decision_per_pair_at_its_ceiling(monkeypatch):
    # the 1 000 seed-2026 n=6 stream pairs: 938 reach their ceiling and cost
    # one decision each, the other 62 two; deciding upward from d+1 made 2 370
    calls = _count_decisions(monkeypatch)
    cfg = FuzzConfig(n=6, seed=2026)
    for idx in range(1000):
        sdepth(random_pair(instance_rng(cfg.seed, idx), cfg))
    assert len(calls) == 1062


@given(quotient_pairs(max_n=7, normalized=False))
@settings(max_examples=80)
def test_descending_search_matches_the_ascending_one(Q):
    assert sdepth(Q).to_json() == ascending_sdepth(Q)


def test_descending_search_matches_the_ascending_one_on_the_stream():
    cfg = FuzzConfig(n=6, seed=2026)
    for idx in range(200):
        Q = random_pair(instance_rng(cfg.seed, idx), cfg)
        assert sdepth(Q).to_json() == ascending_sdepth(Q)


def test_free_variable_answers_hold_on_the_full_pair():
    # first 200 criterion-9 stream pairs with a free variable: the answer
    # read off the restricted pair, checked on the full pair by unpruned
    # search and the oracle, and the lemma's +f checked for hdepth1 and depth
    cfg = FuzzConfig(n=6, seed=2026)
    checked = by_oracle = 0
    idx = 0
    while checked < 200:
        Q = random_pair(instance_rng(cfg.seed, idx), cfg)
        idx += 1
        R, f = restrict_to_support(Q)
        if not f:
            continue
        checked += 1
        res = sdepth(Q)
        assert res.free == f
        cert = sdepth_decide(Q, res.value)
        assert cert is not None and verify_partition(Q, cert)
        if res.value < Q.ambient:
            assert sdepth_decide(Q, res.value + 1) is None
        if len(poset_view(Q).elements) <= 14:
            assert brute_force_sdepth(Q) == res.value
            by_oracle += 1
        assert hdepth1_pair(R).value + f == hdepth1_pair(Q).value
        for char in (0, 2):
            assert depth(R, field=char).depth + f == depth(Q, field=char).depth
    assert by_oracle > 0


@pytest.mark.parametrize("text, value, refuted_k, refuted_by, free", [
    # empty support: I = (1), J = 0 is S itself
    ("n=3\nI = 1\nJ = 0\n", 3, None, None, 3),
    # I = (1), J != 0
    ("n=4\nI = 1\nJ = x1*x3, x3*x4\n", 2, 3, "hdepth1", 1),
    # support of one variable
    ("n=4\nI = 1\nJ = x3\n", 3, 4, "hdepth1", 3),
    ("n=4\nI = x2\nJ = 0\n", 4, None, None, 3),
])
def test_sdepth_edge_supports(text, value, refuted_k, refuted_by, free):
    Q = parse_input(text)
    res = sdepth(Q)
    assert (res.value, res.refuted_k, res.refuted_by, res.free) == (
        value, refuted_k, refuted_by, free)
    assert verify_partition(Q, res.certificate)
    assert res.certificate.sdepth_value == value
    if free == Q.ambient:  # one interval [1, x1*...*xn], no search
        assert res.certificate.to_json() == [["1", "x1*x2*x3"]]

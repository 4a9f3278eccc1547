from __future__ import annotations

from sdepthlab.depth import depth
from sdepthlab.engines import EngineCache
from sdepthlab.fuzz import FuzzConfig, instance_rng, random_pair
from sdepthlab.io import parse_input
from sdepthlab.poset import strata
from sdepthlab.sdepth import sdepth

PP2 = (
    "n=6\n"
    "I = 1\n"
    "J = x1*x2*x4, x1*x2*x5, x1*x3*x5, x1*x3*x6, x1*x4*x6, "
    "x2*x3*x4, x2*x3*x6, x2*x5*x6, x3*x4*x5, x4*x5*x6\n"
)


def test_cache_returns_identical_objects():
    cache = EngineCache()
    Q = parse_input("n=5\nI = x1*x2, x1*x3, x1*x4, x2*x3*x5\nJ = x2*x3*x4*x5\n")
    assert cache.sdepth(Q) is cache.sdepth(Q)
    assert cache.strata(Q) is cache.strata(Q)
    assert cache.depth(Q) is cache.depth(Q)
    assert cache.hdepth(Q) is cache.hdepth(Q)
    assert cache.poset_bits(Q) == cache.poset_bits(Q)
    # equal pairs built independently hit the same entries
    Q2 = parse_input("n=5\nI = x1*x2, x1*x3, x1*x4, x2*x3*x5\nJ = x2*x3*x4*x5\n")
    assert Q2 is not Q and Q2 == Q
    assert cache.sdepth(Q2) is cache.sdepth(Q)


def test_cache_matches_direct_computation():
    cache = EngineCache()
    Q = parse_input("n=4\nI = x1*x2, x2*x3, x3*x4\nJ = 0\n")
    assert cache.sdepth(Q) == sdepth(Q)
    assert cache.depth(Q) == depth(Q, 0)
    assert cache.strata(Q) == strata(Q)


def test_depth_cache_keys_on_characteristic():
    cache = EngineCache()
    Q = parse_input(PP2)
    assert cache.depth(Q).depth == 3
    # the char-0 walk stored its GF(2) answer: the char-2 query is a hit
    assert cache.depth(Q, field=2) is cache.depth(Q).gf2
    assert cache.depth(Q, field=2).depth == 2
    # the char-0 entry is untouched by the char-2 queries
    assert cache.depth(Q).depth == 3
    # asking for char 2 first runs the char-2 walk, which carries no twin
    cache = EngineCache()
    first = cache.depth(Q, field=2)
    assert first == depth(Q, 2) and first.gf2 is None
    assert cache.depth(Q) == depth(Q, 0)
    assert cache.depth(Q, field=2) is first


def _twin_pairs():
    yield parse_input(PP2)  # the characteristics differ: depth 3 vs 2
    for n, count in ((6, 300), (8, 100)):
        cfg = FuzzConfig(n=n, seed=2026)
        for i in range(count):
            yield random_pair(instance_rng(2026, i), cfg)


def test_char0_walk_finds_the_char2_depth():
    differ = 0
    for Q in _twin_pairs():
        zero = depth(Q, 0)
        # depth, pd, witness_degree, witness_index and field
        assert zero.gf2 == depth(Q, 2), Q
        differ += zero.gf2.depth != zero.depth
    assert differ >= 1

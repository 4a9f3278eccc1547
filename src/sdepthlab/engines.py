"""Shared memoization for the exact engines.

Audits and verdict rules repeatedly query depth/sdepth of the same pairs
(colon pairs for different variables frequently coincide), so a small
per-run cache keyed by generator tuples pays for itself.  Results are exact;
the cache only avoids recomputation.  Depth, keyed on the characteristic
too, is the one engine that reads it; a characteristic-0 depth also fills
the characteristic-2 entry.  The poset bitset, strata and hdepth1 are kept
on the pair's PosetView, derived pairs here (the pair may outlive the cache).
"""
from __future__ import annotations

from .depth import DepthResult, depth
from .hilbert import HdepthResult, hdepth1_pair
from .monomials import Ideal, Monomial, QuotientPair, colon_pair
from .poset import StrataReport, poset_view, split_pair, strata
from .sdepth import SdepthResult, sdepth


class EngineCache:
    def __init__(self):
        self._sdepth: dict[tuple, SdepthResult] = {}
        self._depth: dict[tuple, DepthResult] = {}
        self._derived: dict[tuple, tuple] = {}

    def poset_bits(self, Q: QuotientPair) -> int:
        return poset_view(Q).bits

    def strata(self, Q: QuotientPair) -> StrataReport:
        return strata(Q)

    def sdepth(self, Q: QuotientPair) -> SdepthResult:
        k = Q.key()
        got = self._sdepth.get(k)
        if got is None:
            got = sdepth(Q)
            self._sdepth[k] = got
        return got

    def depth(self, Q: QuotientPair, field: int = 0) -> DepthResult:
        k = Q.key()
        got = self._depth.get((k, field))
        if got is None:
            got = depth(Q, field)
            self._depth[(k, field)] = got
            if got.gf2 is not None:
                self._depth.setdefault((k, 2), got.gf2)
        return got

    def hdepth(self, Q: QuotientPair) -> HdepthResult:
        return hdepth1_pair(Q)

    def derived_pairs(self, Q: QuotientPair) -> tuple:
        """Per x_t: (I:x_t)/(J:x_t), I∩(x_t)/J∩(x_t) and I/(J + I∩(x_t)), or None.

        Each is `poset.pair_of` its poset, cut out of Q's, except that a
        restriction equal to I/J is Q itself and shares Q's view and strata.
        """
        k = Q.key()
        got = self._derived.get(k)
        if got is None:
            n = Q.ambient
            got = self._derived[k] = tuple(
                (colon_pair(Q, t), *split_pair(Q, Ideal(n, (Monomial.of(t),))))
                for t in range(1, n + 1)
            )
        return got

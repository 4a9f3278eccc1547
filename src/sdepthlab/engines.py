"""Shared memoization for the exact engines.

Audits and verdict rules repeatedly query depth/sdepth of the same pairs
(colon pairs for different variables frequently coincide), so a small
per-run cache keyed by generator tuples pays for itself.  Results are exact;
the cache only avoids recomputation.  A characteristic-0 depth also fills
the characteristic-2 entry from the same walk.  The poset bitset, strata and
hdepth1 are kept on the pair's PosetView, so the cache reads them there.
"""
from __future__ import annotations

from .depth import DepthResult, depth
from .hilbert import HdepthResult, hdepth1_pair
from .monomials import QuotientPair
from .poset import StrataReport, poset_view, strata
from .sdepth import SdepthResult, sdepth


class EngineCache:
    def __init__(self):
        self._sdepth: dict[tuple, SdepthResult] = {}
        self._depth: dict[tuple, DepthResult] = {}
        self._derived: dict[tuple, tuple] = {}  # filled by verdicts._derived_pairs

    def clear(self) -> None:
        self.__init__()

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

    def depth(self, Q: QuotientPair, field: int | None = None) -> DepthResult:
        char = Q.field if field is None else field
        k = Q.key()
        got = self._depth.get((k, char))
        if got is None:
            got = depth(Q, field=char)
            self._depth[(k, char)] = got
            if got.gf2 is not None:
                self._depth.setdefault((k, 2), got.gf2)
        return got

    def hdepth(self, Q: QuotientPair) -> HdepthResult:
        return hdepth1_pair(Q)

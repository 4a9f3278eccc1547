"""Shared memoization for the exact engines.

Audits and verdict rules repeatedly query depth/sdepth of the same modules
(colon pairs for different variables frequently coincide), so a small
per-run cache keyed by generator tuples pays for itself.  Results are exact;
the cache only avoids recomputation.  Depth, keyed on the characteristic
too, is the one engine that reads it; a characteristic-0 depth also fills
the characteristic-2 entry.  The poset bitset, strata and hdepth1 are kept
on the PosetView, derived modules here (the pair may outlive the cache).
"""
from __future__ import annotations

from .depth import DepthResult, depth
from .hilbert import HdepthResult, hdepth1_pair
from .monomials import QuotientPair, colon_pair
from .poset import (
    PosetView,
    StrataReport,
    filter_bitset,
    poset_view,
    split_filter,
    strata,
    variable_filter,
)
from .sdepth import SdepthResult, sdepth


def _key(Q: QuotientPair | PosetView) -> tuple:
    """(ambient, I's masks, J's masks): an input pair's own `key()`."""
    view = poset_view(Q)
    return (view.ambient, *view.gens)


class EngineCache:
    def __init__(self):
        self._sdepth: dict[tuple, SdepthResult] = {}
        self._depth: dict[tuple, DepthResult] = {}
        self._derived: dict[tuple, tuple] = {}
        self._subideal: dict[tuple, tuple] = {}

    def poset_bits(self, Q: QuotientPair | PosetView) -> int:
        return poset_view(Q).bits

    def strata(self, Q: QuotientPair | PosetView) -> StrataReport:
        return strata(Q)

    def sdepth(self, Q: QuotientPair | PosetView) -> SdepthResult:
        k = _key(Q)
        got = self._sdepth.get(k)
        if got is None:
            got = sdepth(Q)
            self._sdepth[k] = got
        return got

    def depth(self, Q: QuotientPair | PosetView, field: int = 0) -> DepthResult:
        k = _key(Q)
        got = self._depth.get((k, field))
        if got is None:
            got = depth(Q, field)
            self._depth[(k, field)] = got
            if got.gf2 is not None:
                self._depth.setdefault((k, 2), got.gf2)
        return got

    def hdepth(self, Q: QuotientPair | PosetView) -> HdepthResult:
        return hdepth1_pair(Q)

    def derived_pairs(self, Q: QuotientPair | PosetView) -> tuple:
        """Per x_t: (I:x_t)/(J:x_t), I∩(x_t)/J∩(x_t) and I/(J + I∩(x_t)), or None.

        Each is `poset.view_of` its poset, cut out of Q's, except that a
        restriction equal to I/J is Q itself and shares Q's view and strata.
        """
        k = _key(Q)
        got = self._derived.get(k)
        if got is None:
            got = self._derived[k] = tuple(
                (colon_pair(Q, t), *split_filter(Q, variable_filter(Q.ambient, t)))
                for t in range(1, Q.ambient + 1)
            )
        return got

    def subideal_split(self, Q: QuotientPair | PosetView) -> tuple:
        """`split_filter` of Q by I' = (f_1, .., f_r), its generators of I of
        least degree (`strata(Q).f_list`): (I∩I')/(J∩I') and I/(J + I')."""
        k = _key(Q)
        got = self._subideal.get(k)
        if got is None:
            f_masks = [f.mask for f in strata(Q).f_list]
            got = self._subideal[k] = split_filter(
                Q, filter_bitset(Q.ambient, f_masks))
        return got

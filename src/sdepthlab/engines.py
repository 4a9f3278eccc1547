"""Shared memoization for the exact engines.

Audits and verdict rules repeatedly query depth/sdepth of the same modules
(colon pairs for different variables frequently coincide), so a small
per-run cache keyed on (n, bits), the module's poset, pays for itself: a
pair and every view of its poset share one entry.  Results are exact; the
cache only avoids recomputation.  Depth, keyed on the characteristic too,
is the one engine that reads it; a characteristic-0 depth also fills the
characteristic-2 entry, so `depths_agree(0, 2)` tells whether a
characteristic-0 pass has met a characteristic-dependent module.  Strata
and hdepth1 are kept on the module's view, which an input pair keeps too
(the pair may outlive the cache).
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


def _key(Q: QuotientPair | PosetView) -> tuple[int, int]:
    """(n, bits): the module's poset."""
    view = poset_view(Q)
    return view.ambient, view.bits


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
            got = self._sdepth[k] = sdepth(Q)
        return got

    def depth(self, Q: QuotientPair | PosetView, field: int = 0) -> DepthResult:
        k = _key(Q)
        got = self._depth.get((k, field))
        if got is None:
            got = self._depth[(k, field)] = depth(Q, field)
            if got.gf2 is not None:
                self._depth.setdefault((k, 2), got.gf2)
        return got

    def depths_agree(self, a: int, b: int) -> bool:
        """Whether characteristics `a` and `b` agree on every depth held:
        each module with a depth held over one has the same depth held over
        the other."""
        held = self._depth
        for (k, field), got in held.items():
            if field == a or field == b:
                other = held.get((k, b if field == a else a))
                if other is None or other.depth != got.depth:
                    return False
        return True

    def hdepth(self, Q: QuotientPair | PosetView) -> HdepthResult:
        return hdepth1_pair(Q)

    def derived_pairs(self, Q: QuotientPair | PosetView) -> tuple:
        """Per x_t: (I:x_t)/(J:x_t), I∩(x_t)/J∩(x_t) and I/(J + I∩(x_t)), or None.

        Each is `poset.view_of` its poset, cut out of Q's, except that a
        restriction equal to I/J is the module first queried with Q's poset,
        and shares its view and strata.
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
        """`split_filter` of Q by I' = (f_1, .., f_r), the least-degree
        generators of its normal form (`strata(Q).f_list`): (I∩I')/(J∩I')
        and I/(J + I')."""
        k = _key(Q)
        got = self._subideal.get(k)
        if got is None:
            f_masks = [f.mask for f in strata(Q).f_list]
            got = self._subideal[k] = split_filter(
                Q, filter_bitset(Q.ambient, f_masks))
        return got

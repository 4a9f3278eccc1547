"""Exact depth of I/J via multigraded Koszul homology.

depth(I/J) = n - pd(I/J), and pd is the largest i such that the Koszul
complex on x_1..x_n has nonvanishing homology H_i in some multidegree.
Since I/J is a squarefree module, its Betti multidegrees are squarefree, so
only squarefree multidegrees are scanned (a bounded non-squarefree sweep is
available behind `paranoid=True` for test builds).  Variables outside the
supports of the generators act freely and are skipped: the minimal free
resolution is extended from the subring on the active variables.

In multidegree `a` the term K_i has basis {F ⊆ a : |F| = i, x^(a\\F) ∈ I\\J}
with differential e_F ↦ Σ_{j∈F} (-1)^{pos(j,F)} e_{F\\{j}}, entries killed
when the target monomial leaves I\\J.

Characteristic-0 ranks use a GF(2) screen: for a complex of integer
matrices, dim H_i over Q ≤ dim H_i over GF(2) (ranks can only grow in
characteristic 0), so exact Bareiss ranks are computed only where the GF(2)
homology is nonzero.
"""
from __future__ import annotations

from dataclasses import dataclass

from .linalg import boundary_rank
from .monomials import InputError, Monomial, QuotientPair, canonical_key
from .poset import poset_view, upward_closure


@dataclass(frozen=True)
class KoszulDegreeReport:
    a: Monomial
    betti: tuple[int, ...]  # h_0 .. h_n
    field: int

    def to_json(self) -> dict:
        return {"a": str(self.a), "betti": list(self.betti), "field": self.field}


@dataclass(frozen=True)
class DepthResult:
    depth: int
    pd: int
    witness_degree: Monomial
    witness_index: int
    field: int

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "pd": self.pd,
            "witness_degree": str(self.witness_degree),
            "witness_index": self.witness_index,
            "field": self.field,
        }


class _DegreeBlock:
    """Koszul component in one squarefree multidegree; ranks memoized."""

    __slots__ = ("a", "asize", "levels", "_basis", "_colidx", "_ranks")

    def __init__(self, a: int, levels: dict[int, list[int]]):
        self.a = a
        self.asize = a.bit_count()
        self.levels = levels  # P-subset masks of a, keyed by popcount
        self._basis: dict[int, list[int]] = {}
        self._colidx: dict[int, dict[int, int]] = {}
        self._ranks: dict[tuple[int, int], int] = {}

    def basis(self, i: int) -> list[int]:
        got = self._basis.get(i)
        if got is None:
            gsize = self.asize - i
            got = sorted(self.a ^ g for g in self.levels.get(gsize, ()))
            self._basis[i] = got
        return got

    def dim(self, i: int) -> int:
        return len(self.basis(i))

    def colidx(self, i: int) -> dict[int, int]:
        got = self._colidx.get(i)
        if got is None:
            got = {f: k for k, f in enumerate(self.basis(i))}
            self._colidx[i] = got
        return got

    def rank(self, i: int, char: int) -> int:
        """Rank of the differential K_i -> K_{i-1}."""
        if i <= 0:
            return 0
        key = (i, char)
        got = self._ranks.get(key)
        if got is not None:
            return got
        got = boundary_rank(self.basis(i), self.colidx(i - 1), char)
        self._ranks[key] = got
        return got

    def homology(self, i: int, char: int) -> int:
        di = self.dim(i)
        if di == 0:
            return 0
        if char == 0:
            # GF(2) screen; exact Bareiss only when the screen is positive
            if self.dim(i) - self.rank(i, 2) - self.rank(i + 1, 2) == 0:
                return 0
        return di - self.rank(i, char) - self.rank(i + 1, char)


def _p_levels(pbits: int, a: int) -> dict[int, list[int]]:
    """Submasks of `a` lying in the poset, grouped by popcount."""
    levels: dict[int, list[int]] = {}
    g = a
    while True:
        if (pbits >> g) & 1:
            levels.setdefault(g.bit_count(), []).append(g)
        if g == 0:
            break
        g = (g - 1) & a
    return levels


def active_mask(Q: QuotientPair) -> int:
    v = 0
    for g in Q.I.gens:
        v |= g.mask
    for g in Q.J.gens:
        v |= g.mask
    return v


def _candidate_degrees(Q: QuotientPair, pbits: int) -> list[int]:
    """Submasks of the active-variable set that contain a poset element,
    in canonical (degree, index-tuple) order."""
    v = active_mask(Q)
    # a multidegree contributes only if some poset element divides it
    reach = upward_closure(pbits, v)
    cands = []
    a = v
    while True:
        if (reach >> a) & 1:
            cands.append(a)
        if a == 0:
            break
        a = (a - 1) & v
    cands.sort(key=canonical_key)
    return cands


def koszul_component(
    Q: QuotientPair, a: Monomial, field: int | None = None
) -> KoszulDegreeReport:
    char = Q.field if field is None else field
    pbits = poset_view(Q).bits
    block = _DegreeBlock(a.mask, _p_levels(pbits, a.mask))
    betti = [block.homology(i, char) for i in range(Q.ambient + 1)]
    return KoszulDegreeReport(a=a, betti=tuple(betti), field=char)


def depth(Q: QuotientPair, field: int | None = None, paranoid: bool = False) -> DepthResult:
    char = Q.field if field is None else field
    n = Q.ambient
    pbits = poset_view(Q).bits
    pd_max = -1
    witness = None
    for a in _candidate_degrees(Q, pbits):
        levels = _p_levels(pbits, a)
        if not levels:
            continue
        imax = a.bit_count() - min(levels)
        if imax <= pd_max:
            continue
        block = _DegreeBlock(a, levels)
        for i in range(imax, pd_max, -1):
            if block.homology(i, char):
                pd_max = i
                witness = a
                break
    if witness is None:  # unreachable for a valid pair: H_0 never vanishes
        raise InputError("no nonvanishing Koszul homology found")
    if paranoid:
        _paranoid_scan(Q, pbits, char)
    return DepthResult(
        depth=n - pd_max,
        pd=pd_max,
        witness_degree=Monomial(witness),
        witness_index=pd_max,
        field=char,
    )


def _paranoid_scan(Q: QuotientPair, pbits: int, char: int) -> None:
    """Bounded non-squarefree sweep: exponents up to 2 on active variables.

    The squarefree-degree concentration argument predicts zero homology in
    every non-squarefree multidegree; any hit is an engine bug.
    """
    from itertools import product

    vvars = Monomial(active_mask(Q)).vars
    for exps in product((0, 1, 2), repeat=len(vvars)):
        if 2 not in exps:
            continue
        avec = dict(zip(vvars, exps))
        supp = 0
        ones = 0
        for j, e in avec.items():
            if e >= 1:
                supp |= 1 << (j - 1)
            if e == 1:
                ones |= 1 << (j - 1)
        # basis at level i: F ⊆ supp, monomial support = supp minus the
        # F-variables that had exponent exactly 1
        levels: dict[int, list[int]] = {}
        f = supp
        while True:
            tgt = supp ^ (f & ones)
            if (pbits >> tgt) & 1:
                levels.setdefault(f.bit_count(), []).append(f)
            if f == 0:
                break
            f = (f - 1) & supp
        if not levels:
            continue
        for i in sorted(levels):
            h = _general_homology(levels, i, char)
            if h:
                raise AssertionError(
                    f"nonzero homology h_{i} in non-squarefree degree {avec}"
                )


def _general_homology(levels: dict[int, list[int]], i: int, char: int) -> int:
    if not levels.get(i):
        return 0

    def _rank(level: int) -> int:
        cols = {f: k for k, f in enumerate(levels.get(level - 1, ()))}
        return boundary_rank(levels.get(level, []), cols, char)

    return len(levels[i]) - _rank(i) - _rank(i + 1)

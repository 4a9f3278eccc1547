"""Exact depth of I/J via multigraded Koszul homology.

depth(I/J) = n - pd(I/J), and pd is the largest i such that the Koszul
complex on x_1..x_n has nonvanishing homology H_i = Tor_i(I/J, K) in some
multidegree a.

Only lcms of generators can carry homology.  The short exact sequence
0 → I/J → S/J → S/I → 0 gives the exact piece
Tor_{i+1}(S/I)_a → Tor_i(I/J)_a → Tor_i(S/J)_a, so a multidegree with
Tor_i(I/J)_a ≠ 0 carries a Betti number of S/I in homological degree
i+1 ≥ 1 or one of S/J.  By Gasharov–Peeva–Welker ("The lcm-lattice in
monomial resolutions", Math. Res. Lett. 6, 1999) the multidegree of such a
Betti number is the lcm of a nonempty set of generators of I, resp. of J,
except Tor_0(S/J) in degree 1, which meets I/J only when 1 ∈ I\\J, that is
when 1 generates I.  So the candidates are the lcm closures of gens(I) and
of gens(J): squarefree, and free of the variables no generator uses.  This
holds for any presentation, and the engine reads the normal form I'/J' of
the poset (`poset.view_of`), so the witness is a function of (n, bits).

In multidegree `a` the term K_i has basis {F ⊆ a : |F| = i, x^(a\\F) ∈ I\\J}
with differential e_F ↦ Σ_{k∈F} (-1)^{pos(k,F)} e_{F\\{k}}, entries killed
when the target monomial leaves I\\J.

The walk ranks a smaller complex with the same homology, by algebraic
discrete Morse theory (Sköldberg, "Morse theory from an algebraic
viewpoint", Trans. AMS 358, 2006; Jöllenbeck–Welker, "Minimal resolutions
via algebraic discrete Morse theory", Mem. AMS 197, 2009).  For a ≠ 1 let
j be the lowest variable of a, and match each cell F ∌ j with F ∪ {j}
whenever both lie in K(a): with g = a\\F, the cell is matched when
x^(g ⊕ j) ∈ I\\J too, and critical otherwise.  (a = 1 has no variable, and
its one cell is critical.)
  * The matched entry [F∪j : F] is (-1)^0 = 1, a unit over Z, so the
    reduction holds over Z and then over every field.
  * The matching is acyclic: from F the only way up is to F ∪ j, and every
    face of F ∪ j other than F contains j, so it is never matched upward.
    Gradient paths therefore take at most one step, and the Morse
    differential from a critical c to a critical y is
        [c:y] − Σ_x [c:x]·[x∪j:y],
    summed over the faces x ∌ j of c that are matched with x ∪ j; only a
    critical c ∌ j has such faces.  Two paths into the same y cancel
    (they are the two halves of a ∂² = 0 term), so entries stay in
    {-1, 0, 1}.

Characteristic-0 ranks use a GF(2) screen: for a complex of integer
matrices, as the Morse complex is, dim H_i over Q ≤ dim H_i over GF(2)
(ranks can only grow in characteristic 0), so exact ranks over Q are
computed only where the GF(2) homology is nonzero.  The screen also
answers characteristic 2 (`DepthResult.gf2`): pd over Q ≤ pd over GF(2) in
every multidegree, so the characteristic-0 walk visits every degree a
characteristic-2 walk would.

Scan order.  A cell F of K_i(a) needs x^(a\\F) ∈ I\\J, so |a\\F| ≥ d, the
least degree of an element, and H_i = 0 in multidegree a for i > |a| − d.
So `depth` groups the candidates by degree and scans the groups from the
highest degree down, and stops at the first degree k with k − d < pd: no
candidate of degree k or below can reach pd.  A group is sorted into
canonical order only when the scan reaches it, so the degrees below the
stop are never sorted.  The witness stays the canonically first a
that reaches pd, which the upward scan in canonical order finds.  A
candidate of lower degree than the current witness comes earlier in that
order, so it is walked with floor pd − 1 and takes the witness on a tie;
one of the same degree comes later and must exceed pd, so it is not
walked at all when k − d = pd.  The GF(2) answer keeps its own floor and
witness by the same rule.  So depth, pd, witness and the GF(2) answer are
the upward scan's (`ascending_depth` in the tests keeps that scan as the
reference); only the candidates that cannot beat their floor go unranked.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field
from itertools import groupby

from .linalg import check_field, rank
from .monomials import InputError, Monomial, QuotientPair, canonical_key
from .poset import PosetView, poset_view


@dataclass(frozen=True)
class DepthResult:
    depth: int
    pd: int
    witness_degree: Monomial
    witness_index: int
    field: int
    # the characteristic-2 result found by the same walk (char 0 only)
    gf2: DepthResult | None = dc_field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "pd": self.pd,
            "witness_degree": str(self.witness_degree),
            "witness_index": self.witness_index,
            "field": self.field,
        }


def _lcm_closure(gens: tuple[int, ...]) -> set[int]:
    """The lcms of the nonempty subsets of `gens`."""
    out: set[int] = set()
    for g in gens:
        out |= {g | m for m in out}
        out.add(g)
    return out


def _candidates_by_degree(
        Q: QuotientPair | PosetView) -> Iterator[tuple[int, Iterator[int]]]:
    """The lcm closures of gens(I') and gens(J') grouped by degree, highest
    degree first: pairs (k, the candidates of degree k, unsorted)."""
    I, J = poset_view(Q).gens
    return groupby(sorted(_lcm_closure(I) | _lcm_closure(J),
                          key=int.bit_count, reverse=True), key=int.bit_count)


def _morse_matrix(cells: list[int], cols: dict[int, int], pbits: int, a: int,
                  j: int, char: int) -> list:
    """The Morse differential from the critical `cells` to the critical cells
    in `cols` (cell -> column index) of multidegree `a`, matched on `j`.

    Rows are packed ints over characteristic 2 and {column: entry} dicts
    otherwise, as in `linalg.boundary_matrix`.
    """
    packed = char == 2
    rows: list = []
    for c in cells:
        row = 0 if packed else {}
        paths = not c & j  # only a cell without j has faces matched upward
        t = c
        while t:
            k = t & -t
            t ^= k
            x = c ^ k
            sign = -1 if (c & (k - 1)).bit_count() & 1 else 1
            col = cols.get(x)
            if col is not None:  # a critical face
                if packed:
                    row |= 1 << col
                else:
                    row[col] = sign
            elif paths and (pbits >> (a ^ x)) & 1:
                # x lies in K(a) and is not critical, so it is matched with
                # x ∪ j: one gradient step on to the critical faces of x ∪ j,
                # which all contain j
                xj = x | j
                u = x
                while u:
                    low = u & -u
                    u ^= low
                    col = cols.get(xj ^ low)
                    if col is None:
                        continue
                    if packed:
                        row ^= 1 << col
                        continue
                    entry = row.get(col, 0) + (
                        sign if (xj & (low - 1)).bit_count() & 1 else -sign)
                    if entry:
                        row[col] = entry
                    else:
                        del row[col]
        rows.append(row)
    return rows


def _top_homology(pbits: int, a: int, floor: int, char: int,
                  screen_floor: int) -> tuple[int, int]:
    """The largest i > floor with H_i ≠ 0 in multidegree `a`, else `floor`;
    and the largest i > screen_floor with H_i ≠ 0 over the screen field,
    else `screen_floor`.  Needs screen_floor ≥ floor.

    Ranks are those of the Morse complex.  i walks down from its top
    nonempty term, so each step's rank of d_i is the next step's rank of
    d_{i+1}.
    """
    j = a & -a  # the matching variable; 0 for a = 1, where nothing is matched
    crit: list[list[int]] = [[] for _ in range(a.bit_count() + 1)]
    g = a
    while True:
        if (pbits >> g) & 1 and not (j and (pbits >> (g ^ j)) & 1):
            f = a ^ g
            crit[f.bit_count()].append(f)
        if g == 0:
            break
        g = (g - 1) & a
    while crit and not crit[-1]:
        crit.pop()
    screen = 2 if char == 0 else char

    def _rank(i: int, cols: dict[int, int], field: int) -> int:
        if not crit[i] or not cols:
            return 0
        return rank(_morse_matrix(crit[i], cols, pbits, a, j, field), field)

    screen_top = screen_floor
    up_screen = up = 0  # ranks of d_{i+1} over `screen` and `char`; None: not computed
    up_cols: dict[int, int] = {}  # column index of the critical cells of K_i
    for i in range(len(crit) - 1, floor, -1):
        cols = {f: k for k, f in enumerate(crit[i - 1])} if i else {}
        dim = len(crit[i])
        down_screen = _rank(i, cols, screen)
        down = None
        if dim - down_screen - up_screen:
            screen_top = max(screen_top, i)
            if screen == char:
                return i, screen_top
            if up is None:
                up = _rank(i + 1, up_cols, char)
            down = _rank(i, cols, char)
            if dim - down - up:
                return i, screen_top
        up_screen, up, up_cols = down_screen, down, cols
    return floor, screen_top


def depth(Q: QuotientPair | PosetView, field: int) -> DepthResult:
    """depth(I/J) over the field of characteristic `field`."""
    char = check_field(field)
    view = poset_view(Q)
    pbits, d = view.bits, view.d
    pd = pd2 = -1  # over `char`, and over its screen field
    witness = witness2 = None
    wdeg = wdeg2 = -1  # the witnesses' degrees
    for deg, bucket in _candidates_by_degree(view):
        if deg - d < pd:  # no candidate of this degree or below reaches pd
            break
        # below the witness's degree, a candidate comes first canonically: a
        # tie wins.  floor <= floor2, as `_top_homology` needs: pd <= pd2, and
        # when they are equal the GF(2) witness comes no later than the witness
        for a in sorted(bucket, key=canonical_key):
            floor, floor2 = pd - (deg < wdeg), pd2 - (deg < wdeg2)
            # H_i = 0 for i > deg − d, so where deg − d <= floor <= floor2
            # neither answer can rise: skip the walk
            if deg - d <= floor:
                continue
            top, top2 = _top_homology(pbits, a, floor, char, floor2)
            if top > floor:
                pd, witness, wdeg = top, a, deg
            if top2 > floor2:
                pd2, witness2, wdeg2 = top2, a, deg
    if witness is None:  # unreachable for a valid pair: H_0 never vanishes
        raise InputError("no nonvanishing Koszul homology found")
    gf2 = None
    if char == 0:
        gf2 = DepthResult(Q.ambient - pd2, pd2, Monomial(witness2), pd2, 2)
    return DepthResult(Q.ambient - pd, pd, Monomial(witness), pd, char, gf2)

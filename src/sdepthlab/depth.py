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
of gens(J): squarefree, and free of the variables no generator uses.

In multidegree `a` the term K_i has basis {F ⊆ a : |F| = i, x^(a\\F) ∈ I\\J}
with differential e_F ↦ Σ_{j∈F} (-1)^{pos(j,F)} e_{F\\{j}}, entries killed
when the target monomial leaves I\\J.

Characteristic-0 ranks use a GF(2) screen: for a complex of integer
matrices, dim H_i over Q ≤ dim H_i over GF(2) (ranks can only grow in
characteristic 0), so exact ranks over Q are computed only where the GF(2)
homology is nonzero.  The screen also answers characteristic 2
(`DepthResult.gf2`): pd over Q ≤ pd over GF(2) in every multidegree, so the
characteristic-0 walk visits every degree a characteristic-2 walk would.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .linalg import boundary_rank
from .monomials import InputError, Monomial, QuotientPair, canonical_key, check_field
from .poset import poset_view


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


def _candidate_degrees(Q: QuotientPair) -> list[int]:
    """The lcm closures of gens(I) and gens(J), in canonical order."""
    cands = _lcm_closure(Q.I.gen_masks()) | _lcm_closure(Q.J.gen_masks())
    return sorted(cands, key=canonical_key)


def _top_homology(pbits: int, a: int, floor: int, char: int,
                  screen_floor: int) -> tuple[int, int]:
    """The largest i > floor with H_i ≠ 0 in multidegree `a`, else `floor`;
    and the largest i > screen_floor with H_i ≠ 0 over the screen field,
    else `screen_floor`.  Needs screen_floor ≥ floor.

    i walks down from the top nonempty K_i, so each step's rank of d_i is
    the next step's rank of d_{i+1}.
    """
    basis: list[list[int]] = [[] for _ in range(a.bit_count() + 1)]
    g = a
    while True:
        if (pbits >> g) & 1:
            f = a ^ g
            basis[f.bit_count()].append(f)
        if g == 0:
            break
        g = (g - 1) & a
    while basis and not basis[-1]:
        basis.pop()
    screen = 2 if char == 0 else char
    screen_top = screen_floor
    up_screen = up = 0  # ranks of d_{i+1} over `screen` and `char`; None: not computed
    up_cols: dict[int, int] = {}  # column index of K_i
    for i in range(len(basis) - 1, floor, -1):
        cols = {f: k for k, f in enumerate(basis[i - 1])} if i else {}
        dim = len(basis[i])
        down_screen = boundary_rank(basis[i], cols, screen)
        down = None
        if dim - down_screen - up_screen:
            screen_top = max(screen_top, i)
            if screen == char:
                return i, screen_top
            if up is None:
                up = boundary_rank(basis[i + 1], up_cols, char)
            down = boundary_rank(basis[i], cols, char)
            if dim - down - up:
                return i, screen_top
        up_screen, up, up_cols = down_screen, down, cols
    return floor, screen_top


def depth(Q: QuotientPair, field: int | None = None) -> DepthResult:
    char = Q.field if field is None else check_field(field)
    pbits = poset_view(Q).bits
    pd = pd2 = -1  # over `char`, and over its screen field
    witness = witness2 = None
    for a in _candidate_degrees(Q):
        top, top2 = _top_homology(pbits, a, pd, char, pd2)
        if top > pd:
            pd, witness = top, a
        if top2 > pd2:
            pd2, witness2 = top2, a
    if witness is None:  # unreachable for a valid pair: H_0 never vanishes
        raise InputError("no nonvanishing Koszul homology found")
    gf2 = None
    if char == 0:
        gf2 = DepthResult(Q.ambient - pd2, pd2, Monomial(witness2), pd2, 2)
    return DepthResult(Q.ambient - pd, pd, Monomial(witness), pd, char, gf2)

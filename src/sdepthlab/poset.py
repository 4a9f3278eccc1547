"""The divisibility poset P_{I\\J} and its degree strata.

`poset_view` reads P_{I\\J}, every squarefree monomial lying in I but not in
J, once per pair: its bitset, its least degree d, and its elements in
canonical order, layer by layer.  `strata` computes the statistics the
upper-bound theorems consume: the least degree d, the degree-d generators
f_1..f_r, the higher-degree generators E, the degree-(d+1) and -(d+2) layers
B and C, the pairwise generator lcms, and the lcm-constrained subsets C2 and
C3 of C.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .monomials import Monomial, QuotientPair, canonical_key


def poset_bitset(Q: QuotientPair) -> int:
    """Bit m set iff the squarefree monomial with mask m lies in I\\J."""
    n = Q.ambient
    igens = Q.I.gen_masks()
    jgens = Q.J.gen_masks()
    # seed each generator's principal filter, then subtract J's filter
    in_i = _filter_bitset(n, igens)
    in_j = _filter_bitset(n, jgens)
    return in_i & ~in_j


def _filter_bitset(n: int, gens: tuple[int, ...]) -> int:
    # union of upward closures {m : g ⊆ m}, by one shift-OR pass per variable
    out = 0
    for g in gens:
        out |= 1 << g
    if not out:
        return 0
    return upward_closure(out, (1 << n) - 1)


def upward_closure(bits: int, within: int) -> int:
    """Close a subset-indexed bitset upward under adding variables of `within`."""
    t = within
    while t:
        low = t & -t
        i = low.bit_length() - 1
        bits |= (bits & _low_block(i)) << (1 << i)
        t ^= low
    return bits


def downward_closure(bits: int, within: int) -> int:
    """Close a subset-indexed bitset downward under removing variables of `within`."""
    t = within
    while t:
        low = t & -t
        i = low.bit_length() - 1
        bits |= (bits >> (1 << i)) & _low_block(i)
        t ^= low
    return bits


_MAXN = 16
_LOW_BLOCK_CACHE: dict[int, int] = {}


def _low_block(i: int) -> int:
    """Mask over 2^MAXN subset positions selecting those with index-bit i clear."""
    got = _LOW_BLOCK_CACHE.get(i)
    if got is None:
        got = (1 << (1 << i)) - 1  # low half of one period
        width = 1 << (i + 1)
        total = 1 << _MAXN
        while width < total:
            got |= got << width
            width *= 2
        _LOW_BLOCK_CACHE[i] = got
    return got


class PosetView:
    """P_{I\\J} of one pair, computed once and read by every engine.

    `bits` has bit m set iff the monomial with mask m lies in I\\J; `d` is
    the least degree of an element.  `elements` lists the masks in canonical
    order, built on first use and shared by every reader, who must not
    mutate it; that order is degree-major, so the elements of degree k form
    the contiguous run `layer(k)`.  `hdepth` holds the pair's Hilbert depth
    once `hilbert.hdepth1_pair` has computed it from the layers.
    """

    __slots__ = ("bits", "d", "_elements", "hdepth")

    def __init__(self, Q: QuotientPair):
        self.bits = poset_bitset(Q)
        # a least-degree element is divisible by an I-generator outside J
        self.d = min(g.degree for g in Q.I.gens if (self.bits >> g.mask) & 1)
        self._elements: list[int] | None = None
        self.hdepth = None

    @property
    def elements(self) -> list[int]:
        if self._elements is None:
            masks = []
            rest = self.bits
            while rest:
                low = rest & -rest
                masks.append(low.bit_length() - 1)
                rest ^= low
            self._elements = sorted(masks, key=canonical_key)
        return self._elements

    def start(self, k: int) -> int:
        """Index in `elements` of the first element of degree >= k."""
        return bisect_left(self.elements, k << 16, key=canonical_key)

    def layer(self, k: int) -> list[int]:
        """The degree-k elements, in canonical order."""
        return self.elements[self.start(k):self.start(k + 1)]


def poset_view(Q: QuotientPair) -> PosetView:
    """The pair's PosetView, built on first use and kept on the pair."""
    view = Q._poset
    if view is None:
        view = Q._poset = PosetView(Q)
    return view


@dataclass(frozen=True)
class StrataReport:
    """Degree strata of P_{I\\J} plus the generator-lcm bookkeeping.

    Serialized field names (d, r, f_list, E, B, C, s, q, W_B, W_all, C2, C3)
    are a stable external interface.
    """

    ambient: int
    d: int
    f_list: tuple[Monomial, ...]
    E: tuple[Monomial, ...]
    B: tuple[Monomial, ...]
    C: tuple[Monomial, ...]
    W_B: tuple[Monomial, ...]
    W_all: tuple[Monomial, ...]
    C2: tuple[Monomial, ...]
    C3: tuple[Monomial, ...]

    @property
    def r(self) -> int:
        return len(self.f_list)

    @property
    def s(self) -> int:
        return len(self.B)

    @property
    def q(self) -> int:
        return len(self.C)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "r": self.r,
            "f_list": [str(m) for m in self.f_list],
            "E": [str(m) for m in self.E],
            "B": [str(m) for m in self.B],
            "C": [str(m) for m in self.C],
            "s": self.s,
            "q": self.q,
            "W_B": [str(m) for m in self.W_B],
            "W_all": [str(m) for m in self.W_all],
            "C2": [str(m) for m in self.C2],
            "C3": [str(m) for m in self.C3],
        }


def strata(Q: QuotientPair) -> StrataReport:
    view = poset_view(Q)
    d = view.d
    # I.gens and the layers are already in canonical order.  Tuples are built
    # from lists: tuple(<generator>) shrinks a 10-slot tuple, which moves
    # tuples between the interpreter's per-size free lists and raised the
    # peak RSS of surgery runs by 9%.
    f_list = tuple([g for g in Q.I.gens if g.degree == d])
    E = tuple([g for g in Q.I.gens if g.degree > d])
    B = tuple([Monomial(m) for m in view.layer(d + 1)])
    C = tuple([Monomial(m) for m in view.layer(d + 2)])

    w_masks = {
        f_list[i].mask | f_list[j].mask
        for i in range(len(f_list))
        for j in range(i + 1, len(f_list))
    }
    W_all = tuple([Monomial(m) for m in sorted(w_masks, key=canonical_key)])
    b_masks = {u.mask for u in B}
    W_B = tuple([b for b in B if b.mask in w_masks])
    C2 = tuple([c for c in C if c.mask in w_masks])

    # C3: every degree-(d+1) divisor lying in B \ E must be a generator lcm
    e_masks = {g.mask for g in E}
    wb_masks = {u.mask for u in W_B}
    c3 = []
    for c in C:
        ok = True
        cm = c.mask
        t = cm
        while t:
            low = t & -t
            div = cm & ~low
            if div in b_masks and div not in e_masks and div not in wb_masks:
                ok = False
                break
            t ^= low
        if ok:
            c3.append(c)
    return StrataReport(
        ambient=Q.ambient,
        d=d,
        f_list=f_list,
        E=E,
        B=B,
        C=C,
        W_B=W_B,
        W_all=W_all,
        C2=C2,
        C3=tuple(c3),
    )

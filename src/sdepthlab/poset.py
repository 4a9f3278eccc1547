"""The divisibility poset P_{I\\J} and its degree strata.

I/J depends only on P_{I\\J}, every squarefree monomial lying in I but not
in J (Herzog-Vladoiu-Zheng, J. Algebra 322, 2009), so every module is read
through a `PosetView`, and `view_of(n, bits)` builds every view: the
bitset, least degree d, normal-form generators and elements in canonical
order.  An input pair's view is `view_of` its `poset_bitset`, kept on the
pair; a colon, split end or restriction is `view_of` the poset cut out of
its parent's.  So all an engine reads is a function of (n, bits).
`layer_counts` reads the number of elements in each degree off the bitset,
one popcount against `degree_bits` per degree, with no sort.  `strata`
reads off the view the statistics the upper-bound theorems consume: the
least degree d, the degree-d generators f_1..f_r, the higher-degree
generators E, the degree-(d+1) and -(d+2) layers B and C, the pairwise
generator lcms, and the lcm-constrained subsets C2 and C3 of C.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate

from .monomials import MAX_AMBIENT, Ideal, Monomial, QuotientPair, canonical_key


def poset_bitset(Q: QuotientPair) -> int:
    """Bit m set iff the squarefree monomial with mask m lies in I\\J."""
    n = Q.ambient
    return filter_bitset(n, Q.I.gen_masks()) & ~filter_bitset(n, Q.J.gen_masks())


def filter_bitset(n: int, gens: tuple[int, ...]) -> int:
    """Bitset of the masks over x_1..x_n lying above some mask in `gens`."""
    # seed each generator, then close upward by one shift-OR per variable
    out = 0
    for g in gens:
        out |= 1 << g
    return upward_closure(out, n)


def upward_closure(bits: int, n: int) -> int:
    """Close a subset-indexed bitset upward under adding any of x_1..x_n."""
    for i in range(n):
        bits |= (bits & _LOW_BLOCKS[i]) << (1 << i)
    return bits


@cache
def degree_bits(n: int, k: int) -> int:
    """Bitset of the degree-k masks of n variables."""
    # layers[j]: the degree-j masks of the variables added so far; adding
    # x_i shifts each degree-(j-1) mask up by 2^(i-1) into degree j
    layers = [1] + [0] * k
    for i in range(n):
        for j in range(k, 0, -1):
            layers[j] |= layers[j - 1] << (1 << i)
    return layers[k]


@cache
def variable_filter(n: int, j: int) -> int:
    """Bitset of the masks over x_1..x_n that x_j divides: its principal
    filter, which the colon pairs and the colon screen read."""
    return filter_bitset(n, (1 << (j - 1),))


def layer_counts(Q: QuotientPair | PosetView) -> list[int]:
    """α_0..α_n: the number of elements of P_{I\\J} in each degree, one
    popcount per degree of the module's bitset."""
    n, bits = Q.ambient, poset_view(Q).bits
    return [(bits & degree_bits(n, e)).bit_count() for e in range(n + 1)]


def interval_bits(lo: int, hi: int) -> int:
    """Bitset of the masks between lo and hi: one shift-OR per free variable."""
    bits = 1 << lo
    span = hi & ~lo
    while span:
        low = span & -span
        bits |= bits << low
        span ^= low
    return bits


def members(bits: int) -> list[int]:
    """The positions of the set bits of `bits`, ascending: the masks in a
    subset-indexed bitset, or the variables (from 0) of a mask."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def downward_closure(bits: int, n: int) -> int:
    """Close a subset-indexed bitset downward under removing any of x_1..x_n."""
    for i in range(n):
        bits |= (bits >> (1 << i)) & _LOW_BLOCKS[i]
    return bits


def _low_block(i: int) -> int:
    """Mask over 2^MAX_AMBIENT subset positions: those with index-bit i clear."""
    got = (1 << (1 << i)) - 1  # low half of one period
    width = 1 << (i + 1)
    while width < 1 << MAX_AMBIENT:
        got |= got << width
        width *= 2
    return got


_LOW_BLOCKS = tuple(_low_block(i) for i in range(MAX_AMBIENT))


class PosetView:
    """P_{I\\J} of one module over x_1..x_ambient, read by every engine.

    `bits` has bit m set iff the monomial with mask m lies in I\\J; `d` is
    the least degree of an element; `gens` holds the generator masks of the
    normal form I'/J' (see `view_of`).  `elements`
    lists the masks in canonical order, built on first use and shared by
    every reader, who must not mutate it; that order is degree-major, so the
    elements of degree k form the contiguous run `layer(k)`.  `hdepth` and
    `_strata` hold the module's Hilbert depth and StrataReport once
    `hilbert.hdepth1_pair` and `strata` have computed them.
    """

    __slots__ = ("ambient", "bits", "d", "gens", "_elements", "_starts", "hdepth", "_strata")

    def __init__(self, ambient: int, bits: int, d: int, gens: tuple):
        self.ambient = ambient
        self.bits = bits
        self.d = d
        self.gens = gens
        self._elements: list[int] | None = None
        self._starts: list[int] = []
        self.hdepth = None
        self._strata = None

    @property
    def elements(self) -> list[int]:
        if self._elements is None:
            self._index()
        return self._elements

    def start(self, k: int) -> int:
        """Index in `elements` of the first element of degree >= k."""
        if self._elements is None:
            self._index()
        starts = self._starts
        return starts[min(max(k, 0), len(starts) - 1)]

    def _index(self) -> None:
        """Sort the elements and count them by degree, once."""
        masks = members(self.bits)
        self._elements = sorted(masks, key=canonical_key)
        # _starts[k] = number of elements of degree < k, for k up to one
        # past the top degree
        counts = [0] * (self._elements[-1].bit_count() + 1)
        for m in masks:
            counts[m.bit_count()] += 1
        self._starts = list(accumulate(counts, initial=0))

    def layer(self, k: int) -> list[int]:
        """The degree-k elements, in canonical order."""
        return self.elements[self.start(k):self.start(k + 1)]


def poset_view(Q: QuotientPair | PosetView) -> PosetView:
    """The view itself, or the pair's, built on first use and kept on it."""
    if isinstance(Q, PosetView):
        return Q
    if Q._poset is None:
        view = view_of(Q.ambient, poset_bitset(Q))
        own = Q.I.gen_masks(), Q.J.gen_masks()
        if view.gens == own:  # keep the pair's tuples, not an equal copy
            view.gens = own
        Q._poset = view
    return Q._poset


def _minimal(bits: int, n: int) -> int:
    # in a convex family an element is minimal iff no element lies one
    # variable below it
    below = 0
    for i in range(n):
        below |= (bits & _LOW_BLOCKS[i]) << (1 << i)
    return bits & ~below


def view_of(n: int, bits: int) -> PosetView | None:
    """The view over x_1..x_n whose poset P is the convex family `bits`, or
    None when `bits` is 0; the one constructor of a `PosetView`.

    Its generators are those of the normal form I'/J': I' is generated by
    the minimal elements of P and J' by those of up(P) \\ P, which is I' ∩ J
    for any I/J with poset P.  So J' has no generator of degree ≤ d.
    """
    if not bits:
        return None
    I, J = (tuple(sorted(members(_minimal(b, n)), key=canonical_key))
            for b in (bits, upward_closure(bits, n) & ~bits))
    return PosetView(n, bits, I[0].bit_count(), (I, J))


def split_pair(Q: QuotientPair | PosetView, sub: Ideal) -> tuple:
    """The ends of 0 → (I∩sub)/(J∩sub) → I/J → I/(J + I∩sub) → 0, each
    None when it is zero.

    Their posets are P ∩ F and P \\ F, for F the squarefree monomials of
    sub; each end is `view_of` its poset, except that a first end with all
    of P is Q itself.
    """
    sub._check_ambient(Q)
    return split_filter(Q, filter_bitset(Q.ambient, sub.gen_masks()))


def split_filter(Q: QuotientPair | PosetView, F: int) -> tuple:
    """`split_pair` by the ideal whose squarefree monomials are the bitset F."""
    n, bits = Q.ambient, poset_view(Q).bits
    inside = bits & F
    if inside == bits:
        return Q, None
    return view_of(n, inside), view_of(n, bits & ~inside)


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


def strata(Q: QuotientPair | PosetView) -> StrataReport:
    """The module's StrataReport, built on first use and kept on it.

    A pair's report is kept on the pair, not on its view: it reads f_1..f_r
    and E off the pair's own generators, which differ from the normal form's
    when a generator of I lies in J.  `perfbench/stream_reference.json` pins
    E_size for 41 such pool pairs, until ROADMAP item 1 records it again.
    """
    if Q._strata is None:
        view = poset_view(Q)
        Q._strata = _strata_report(view, view.gens[0] if Q is view else Q.I.gen_masks())
    return Q._strata


def _strata_report(view: PosetView, masks: tuple[int, ...]) -> StrataReport:
    d = view.d
    # I's masks and the layers are already in canonical order.  Tuples are
    # built from lists: tuple(<generator>) shrinks a 10-slot tuple, which
    # moves tuples between the interpreter's per-size free lists and raised
    # the peak RSS of surgery runs by 9%.
    f_list = tuple([Monomial(m) for m in masks if m.bit_count() == d])
    E = tuple([Monomial(m) for m in masks if m.bit_count() > d])
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
        ambient=view.ambient,
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

"""Exact Stanley depth of I/J via interval partitions of P_{I\\J}.

Because J ⊆ I are ideals, any two comparable poset elements bound a *full*
interval: every squarefree monomial between them lies in I\\J as well.  So a
partition certificate is just a set of (lo, hi) pairs.

The decision procedure sdepth ≥ k uses a normalized search space, losing no
generality: every element of degree < k sits in an interval whose top has
degree exactly k, and everything else is a singleton.  (Any partition of
value ≥ k restructures into this shape: inside an interval topped above k,
the sub-Boolean-lattice of elements below level k re-partitions into
intervals topped exactly at level k, by induction on the number of
variables; the remaining elements become singletons.)

Exhaustiveness: the canonically least uncovered low element must be the
*bottom* of its interval — any strictly smaller bottom would be an earlier,
already-covered low — so branching over its degree-k tops explores every
normalized partition.

Ceiling: `sdepth` decides k = hdepth1(I/J), hdepth1 - 1, .. down to d and
stops at the first k that has a partition.  A Stanley decomposition
⊕ u_i K[Z_i] with |Z_i| ≥ k is also a Hilbert decomposition of the Z-graded
series into shifted polynomial rings of dimension ≥ k, so sdepth ≤ hdepth1;
a value that reaches hdepth1 has k+1 refuted by that count
(`refuted_by = "hdepth1"`), not by a search.  The decision is monotone: a
partition of value ≥ k also has value ≥ k-1, so the first satisfiable k from
the top is sdepth, and every k above it was refuted by search.  Most pairs
reach their ceiling, so most cost one search.  hdepth1 is a finite integer
check on the pair's layer counts |P_e| (see `hilbert`), so the ceiling costs
no series expansion and cannot stall.

Pruning: a node is abandoned when an uncovered low lies under no uncovered
top.  One downward closure of the uncovered tops finds every such dead low,
and a dead low stays dead below the node, since covering only removes tops.
The search is one loop over an explicit stack with an entry per chosen
interval, so its depth is bounded by memory, not by the recursion limit.

Interval bits: a (low, top) pair's bitset is computed when the pair is
first tried, and again on its first retry after a backtrack, which keeps it
for the rest of the decision; a hard refutation retries a few hundred pairs
tens of thousands of times.  A pair tried only once keeps nothing, so a
search without backtracking (m_n) holds no more bitsets than the stack's.
The bits are a function of the pair alone, so the nodes, their order, and
every certificate and refutation are those of computing them at each try.
"""
from __future__ import annotations

from dataclasses import dataclass

from .monomials import InputError, Monomial, QuotientPair
from .hilbert import hdepth1_pair
from .poset import PosetView, downward_closure, filter_bitset, interval_bits, poset_view


class MalformedIntervalError(InputError):
    """An interval whose lower end does not divide its upper end."""


@dataclass(frozen=True)
class Interval:
    lo: Monomial
    hi: Monomial

    def __post_init__(self):
        if not self.lo.divides(self.hi):
            raise MalformedIntervalError(f"[{self.lo}, {self.hi}] has lo ∤ hi")

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class Partition:
    intervals: tuple[Interval, ...]

    @property
    def sdepth_value(self) -> int:
        return min((iv.hi.degree for iv in self.intervals), default=0)

    def to_json(self) -> list[list[str]]:
        return [[str(iv.lo), str(iv.hi)] for iv in self.intervals]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""
    offender: Monomial | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SdepthResult:
    value: int
    certificate: Partition
    refuted_k: int | None
    refuted_by: str | None  # "hdepth1" or "search"; None when value = n
    free: int  # variables that divide no generator of I or J

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "certificate": self.certificate.to_json(),
            "refuted_k": self.refuted_k,
            "refuted_by": self.refuted_by,
            "free": self.free,
        }


def verify_partition(Q: QuotientPair | PosetView, partition: Partition) -> VerifyResult:
    """Disjoint-cover check; reports the first offender in canonical order."""
    view = poset_view(Q)
    covered = twice = 0
    for iv in partition.intervals:  # Interval construction enforces lo | hi
        for m in (iv.lo.mask, iv.hi.mask):
            if not (view.bits >> m) & 1:
                return VerifyResult(
                    False, "interval endpoint outside the poset", Monomial(m)
                )
        # I\J is convex, so an interval with both ends in it lies inside
        ibits = interval_bits(iv.lo.mask, iv.hi.mask)
        twice |= covered & ibits
        covered |= ibits

    if view.bits & ~covered or twice:
        for mm in view.elements:
            if not (covered >> mm) & 1:
                return VerifyResult(False, "monomial not covered", Monomial(mm))
            if (twice >> mm) & 1:
                return VerifyResult(False, "monomial doubly covered", Monomial(mm))
    return VerifyResult(True)


def sdepth_decide(Q: QuotientPair | PosetView, k: int) -> Partition | None:
    """A verified partition witnessing sdepth ≥ k, or None when none exists.

    With f free variables (see `sdepth`) the search decides k - f on the
    module restricted to its support and lifts the certificate; when
    k - f < d, the lifted partition of value d answers yes.
    """
    view = poset_view(Q)
    if not view.d <= k <= view.ambient:
        raise InputError(f"k={k} outside [{view.d}, {view.ambient}]")
    support, free = _support(view)
    if not free:
        return _decide(view, k)
    if not support:
        return _whole_ring(free)
    cert = _decide(_restrict(view, support), max(k - free.bit_count(), view.d))
    return None if cert is None else _lift(cert, support, free)


def _decide(view: PosetView, k: int) -> Partition | None:
    """`sdepth_decide` by search on the whole poset; d <= k <= n."""
    elements = view.elements
    lows = elements[:view.start(k)]
    if not lows:
        return _expand(elements, [])

    tops = view.layer(k)
    low_bits = sum(1 << u for u in lows)
    top_bits = sum(1 << v for v in tops)
    n = view.ambient
    # per low: the tops above it, in canonical order (the order they are tried)
    tops_of: dict[int, list[int]] = {u: [] for u in lows}
    for v in tops:
        g = v
        while True:
            if (low_bits >> g) & 1:
                tops_of[g].append(v)
            if not g:
                break
            g = (g - 1) & v
    # per visited low, beside each top its interval's bits: 0 untried, -1
    # tried once, then the bits, kept from the first retry on (see
    # "Interval bits" above)
    bits_of: list[list[int] | None] = [None] * len(lows)

    # a dead low: an uncovered low lying under no uncovered top
    if low_bits & ~downward_closure(top_bits, n):
        return None
    # per chosen interval: its low's index, the index of the low's next top
    # to try, and the interval's bits
    stack: list[tuple[int, int, int]] = []
    covered = i = j = 0
    while True:
        while i < len(lows) and (covered >> lows[i]) & 1:
            i += 1
        if i == len(lows):
            break
        u = lows[i]
        above, memo = tops_of[u], bits_of[i]
        if memo is None:
            memo = bits_of[i] = [0] * len(above)
        for t in range(j, len(above)):
            v = above[t]
            if (covered >> v) & 1:
                continue
            ibits = memo[t]
            if ibits <= 0:
                fresh = interval_bits(u, v)
                memo[t] = fresh if ibits else -1
                ibits = fresh
            if ibits & covered:
                continue
            rest = covered | ibits
            if low_bits & ~rest & ~downward_closure(top_bits & ~rest, n):
                continue
            covered = rest
            stack.append((i, t + 1, ibits))
            i, j = i + 1, 0
            break
        else:  # no top of u is left: take back the last chosen interval
            if not stack:
                return None
            i, j, ibits = stack.pop()
            covered &= ~ibits
    chosen = [(lows[a], tops_of[lows[a]][b - 1]) for a, b, _ in stack]
    return _expand(elements, chosen, covered)


def _expand(
    elements: list[int], chosen: list[tuple[int, int]], covered: int = 0
) -> Partition:
    ivs = [Interval(Monomial(u), Monomial(v)) for u, v in chosen]
    for m in elements:
        if not (covered >> m) & 1:
            mono = Monomial(m)
            ivs.append(Interval(mono, mono))
    ivs.sort(key=lambda iv: iv.lo.sort_key())
    return Partition(tuple(ivs))


def sdepth(Q: QuotientPair | PosetView) -> SdepthResult:
    """Exact Stanley depth of I/J, with a certificate and the refuter of k+1.

    Variables that divide no generator of I or J are free: by
    Herzog–Vladoiu–Zheng, J. Algebra 322 (2009), Lemma 3.6, adjoining one
    (S' = S[x]) gives sdepth(IS'/JS') = sdepth(I/J) + 1.  In poset terms
    P_{IS'\\JS'} = P_{I\\J} × {1, x}, and both directions are direct:
    (≥) a partition of P_{I\\J} into intervals [u, v] lifts to the intervals
    [u, v·x], which cover each element and its multiple by x once; (≤) the
    elements of an interval [u, v] of a partition of P_{IS'\\JS'} that x does
    not divide form [u, v with x removed], or nothing when x | u, so it
    restricts to a partition of P_{I\\J} whose tops lose at most one degree.  The Hilbert series gains a
    factor 1/(1-t) per free variable, so hdepth1 also gains exactly one.

    So with f free variables the search runs on the module restricted to the
    used ones, relabelled onto x_1..x_m in order, with ceiling
    hdepth1(I/J) - f, and its certificate lifts interval by interval to
    [u, v·x_F], x_F the product of the free variables.  The value and
    `refuted_k` are those of the full module; `refuted_by` names what
    refuted the restricted k.
    """
    view = poset_view(Q)
    support, free = _support(view)
    f = free.bit_count()
    if not support:  # I = (1), J = 0: S itself is the Stanley space 1·K[x_1..x_n]
        return SdepthResult(f, _whole_ring(free), refuted_k=None,
                            refuted_by=None, free=f)
    R = _restrict(view, support) if f else view
    value, best, refuted_by = _search(R, hdepth1_pair(view).value - f)
    if f:
        best = _lift(best, support, free)
    refuted_k = None if refuted_by is None else value + f + 1
    return SdepthResult(value + f, best, refuted_k, refuted_by, free=f)


def _support(view: PosetView) -> tuple[int, int]:
    """The masks of the variables that divide a generator of I or J, and of
    the free ones."""
    support = 0
    for g in view.gens[0] + view.gens[1]:
        support |= g
    return support, ((1 << view.ambient) - 1) & ~support


def _restrict(view: PosetView, support: int) -> PosetView:
    """The view restricted to the variables of `support`, relabelled onto
    x_1..x_m, which keeps the generators' canonical order and the degree d."""
    m = support.bit_count()
    I, J = (tuple([_squeeze(g, support) for g in side]) for side in view.gens)
    return PosetView(m, filter_bitset(m, I) & ~filter_bitset(m, J), view.d, (I, J))


def _lift(partition: Partition, support: int, free: int) -> Partition:
    """A partition of the restricted pair, interval by interval [u, v·x_F]."""
    # relabelling keeps the canonical order, so the lows stay sorted
    return Partition(tuple(
        Interval(Monomial(_spread(iv.lo.mask, support)),
                 Monomial(_spread(iv.hi.mask, support) | free))
        for iv in partition.intervals
    ))


def _whole_ring(free: int) -> Partition:
    """The partition of S = (1)/0 into the one interval [1, x_1···x_n]."""
    return Partition((Interval(Monomial(0), Monomial(free)),))


def _search(view: PosetView, ceiling: int) -> tuple[int, Partition, str | None]:
    """sdepth of the view by deciding k = ceiling (≥ sdepth), ceiling - 1, .. d.

    `sdepth_decide(Q, k)` answers yes iff sdepth ≥ k, so the first k that
    it answers from the top is the value and its partition the certificate:
    the same deterministic call that an upward loop would keep last.

    Returns the value, its certificate, and the refuter of value + 1
    (None when value is the ambient count).
    """
    # the public name, so that a wrapper of it (perfbench's tracer) sees the
    # search; the view has no free variables, so each k costs one support scan
    for k in range(ceiling, view.d - 1, -1):
        best = sdepth_decide(view, k)
        if best is not None:
            break
    assert best is not None  # k = d has no lows; always satisfiable
    if k == view.ambient:
        return k, best, None
    return k, best, "hdepth1" if k == ceiling else "search"


def _squeeze(mask: int, support: int) -> int:
    """Relabel the variables of `support` onto x_1..x_m, keeping their order."""
    out = 0
    bit = 1
    while support:
        low = support & -support
        if mask & low:
            out |= bit
        bit <<= 1
        support ^= low
    return out


def _spread(mask: int, support: int) -> int:
    """Inverse of `_squeeze`: send x_i to the i-th variable of `support`."""
    out = 0
    while mask and support:
        low = support & -support
        if mask & 1:
            out |= low
        mask >>= 1
        support ^= low
    return out


def brute_force_sdepth(Q: QuotientPair | PosetView, limit: int = 14) -> int:
    """Independent oracle: exhaustive search over all interval partitions.

    Exponential; guarded by `limit` on the poset size.
    """
    elements = poset_view(Q).elements
    if len(elements) > limit:
        raise InputError(f"poset size {len(elements)} exceeds oracle limit {limit}")
    full = (1 << len(elements)) - 1

    # all intervals [u, v], u | v, with their element-index bitmasks; the
    # members are read off the definition u | w | v, not off the search's
    # interval enumeration
    by_elem: list[list[tuple[int, int]]] = [[] for _ in elements]
    for i, u in enumerate(elements):
        for v in elements:
            if u & ~v == 0:
                bits = sum(1 << j for j, w in enumerate(elements)
                           if u & ~w == 0 and w & ~v == 0)
                by_elem[i].append((v.bit_count(), bits))

    best = -1

    def _go(covered: int, current_min: int) -> None:
        nonlocal best
        if current_min <= best:
            return
        if covered == full:
            best = current_min
            return
        i = next(j for j in range(len(elements)) if not (covered >> j) & 1)
        for topdeg, bits in by_elem[i]:
            if bits & covered:
                continue
            _go(covered | bits, min(current_min, topdeg))

    _go(0, 10**9)
    assert best >= 0
    return best

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

Ceiling: `sdepth` searches k = d+1 .. hdepth1(I/J) and no further.  A
Stanley decomposition ⊕ u_i K[Z_i] with |Z_i| ≥ k is also a Hilbert
decomposition of the Z-graded series into shifted polynomial rings of
dimension ≥ k, so sdepth ≤ hdepth1; a value that reaches hdepth1 has k+1
refuted by that count (`refuted_by = "hdepth1"`), not by a search.

Pruning: a node is abandoned when an uncovered low lies under no uncovered
top (one downward closure of the uncovered tops finds them all), or when
the uncovered (k-1)-layer admits no assignment to uncovered tops in which a
top v takes at most k - (least degree of a poset element dividing v) of
them.  That assignment is warm-started: a child keeps its parent's
assignment, drops the pairs whose low or top the new interval covers, and
re-augments only the lows so orphaned.  Augmenting paths reach a maximum
b-matching from any valid partial one, so every node gets the same verdict
as an assignment built from scratch, and the search tree is unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

from .monomials import Ideal, InputError, Monomial, QuotientPair
from .hilbert import hdepth1_pair
from .poset import downward_closure, poset_view


class MalformedIntervalError(InputError):
    """An interval whose lower end does not divide its upper end."""


@dataclass(frozen=True)
class Interval:
    lo: Monomial
    hi: Monomial

    def __post_init__(self):
        if not self.lo.divides(self.hi):
            raise MalformedIntervalError(f"[{self.lo}, {self.hi}] has lo ∤ hi")

    def member_masks(self) -> list[int]:
        """All squarefree monomials between lo and hi (full interval)."""
        lo = self.lo.mask
        span = self.hi.mask & ~lo
        out = []
        g = span
        while True:
            out.append(lo | g)
            if g == 0:
                break
            g = (g - 1) & span
        return out

    def __contains__(self, m: Monomial) -> bool:
        return self.lo.divides(m) and m.divides(self.hi)

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

    def __len__(self) -> int:
        return len(self.intervals)


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


def verify_partition(Q: QuotientPair, partition: Partition) -> VerifyResult:
    """Disjoint-cover check; reports the first offender in canonical order."""
    view = poset_view(Q)
    counts: dict[int, int] = {}
    for iv in partition.intervals:  # Interval construction enforces lo | hi
        for m in (iv.lo.mask, iv.hi.mask):
            if not (view.bits >> m) & 1:
                return VerifyResult(
                    False, "interval endpoint outside the poset", Monomial(m)
                )
        for m in iv.member_masks():
            counts[m] = counts.get(m, 0) + 1

    for mm in view.elements:
        c = counts.get(mm, 0)
        if c == 0:
            return VerifyResult(False, "monomial not covered", Monomial(mm))
        if c > 1:
            return VerifyResult(False, "monomial doubly covered", Monomial(mm))
    return VerifyResult(True)


def _interval_bits(lo: int, hi: int) -> int:
    """Bitset of the masks between lo and hi: one shift-OR per free variable."""
    bits = 1 << lo
    span = hi & ~lo
    while span:
        low = span & -span
        bits |= bits << low
        span ^= low
    return bits


def sdepth_decide(Q: QuotientPair, k: int) -> Partition | None:
    """A verified partition witnessing sdepth ≥ k, or None when none exists."""
    view = poset_view(Q)
    if not view.d <= k <= Q.ambient:
        raise InputError(f"k={k} outside [{view.d}, {Q.ambient}]")
    elements = view.elements
    lows = elements[:view.start(k)]
    if not lows:
        return _expand(elements, [], k)

    tops = view.layer(k)
    mid_lows = view.layer(k - 1)
    low_bits = sum(1 << u for u in lows)
    top_bits = sum(1 << v for v in tops)
    every_var = (1 << Q.ambient) - 1
    # per low: admissible tops in canonical order (tops are visited in it);
    # capacity of a top = k - (least degree of a poset element dividing it)
    tops_of: dict[int, list[int]] = {u: [] for u in lows}
    cap: dict[int, int] = {}
    for v in tops:
        least = k
        g = v
        while True:
            if (low_bits >> g) & 1:
                tops_of[g].append(v)
                least = min(least, g.bit_count())
            if not g:
                break
            g = (g - 1) & v
        cap[v] = k - least

    chosen: list[tuple[int, int]] = []
    covered = 0

    def _has_dead_low() -> bool:
        # an uncovered low lying under no uncovered top
        live = downward_closure(top_bits & ~covered, every_var)
        return bool(low_bits & ~covered & ~live)

    def _augment(u: int, seen: set[int], at: dict, owners: dict) -> bool:
        for v in tops_of[u]:
            if (covered >> v) & 1 or v in seen:
                continue
            seen.add(v)
            ws = owners.get(v, ())
            if len(ws) < cap[v]:
                owners[v] = ws + (u,)
                at[u] = v
                return True
            for w in ws:
                # `seen` holds v, so the deeper search leaves owners[v] alone
                if _augment(w, seen, at, owners):
                    owners[v] = tuple([u if x == w else x for x in ws])
                    at[u] = v
                    return True
        return False

    def _matched(state, u: int, v: int):
        """The capacity assignment of the uncovered (k-1)-layer after [u, v].

        `state` is the parent's assignment (None at the root), which matched
        every (k-1)-element uncovered there.  Its pairs stay valid except
        those of the lows [u, v] covers and those sent to the top v; only
        the lows so orphaned are augmented again.  Returns None when some
        low cannot be placed: no capacity-respecting assignment exists.
        """
        if state is None:
            at: dict[int, int] = {}
            owners: dict[int, tuple[int, ...]] = {}
            pending = [w for w in mid_lows if not (covered >> w) & 1]
        else:
            at, owners = dict(state[0]), dict(state[1])
            free = v & ~u
            while free:
                bit = free & -free
                w = v ^ bit
                t = at.pop(w)
                owners[t] = tuple([x for x in owners[t] if x != w])
                free ^= bit
            pending = owners.pop(v, ())
            for w in pending:
                del at[w]
        for w in pending:
            if not _augment(w, set(), at, owners):
                return None
        return at, owners

    def _bt(i: int, state) -> bool:
        nonlocal covered
        while i < len(lows) and (covered >> lows[i]) & 1:
            i += 1
        if i == len(lows):
            return True
        u = lows[i]
        for v in tops_of[u]:
            if (covered >> v) & 1:
                continue
            ibits = _interval_bits(u, v)
            if ibits & covered:
                continue
            covered |= ibits
            chosen.append((u, v))
            if not _has_dead_low():
                child = _matched(state, u, v)
                if child is not None and _bt(i + 1, child):
                    return True
            chosen.pop()
            covered &= ~ibits
        return False

    if _has_dead_low() or not _bt(0, None):
        return None
    return _expand(elements, chosen, k, covered)


def _expand(
    elements: list[int], chosen: list[tuple[int, int]], k: int, covered: int = 0
) -> Partition:
    ivs = [Interval(Monomial(u), Monomial(v)) for u, v in chosen]
    for m in elements:
        if not (covered >> m) & 1:
            mono = Monomial(m)
            ivs.append(Interval(mono, mono))
    ivs.sort(key=lambda iv: iv.lo.sort_key())
    return Partition(tuple(ivs))


def sdepth(Q: QuotientPair) -> SdepthResult:
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

    So with f free variables the search runs on the pair restricted to the
    used ones, relabelled onto x_1..x_m in order, with ceiling
    hdepth1(I/J) - f, and its certificate lifts interval by interval to
    [u, v·x_F], x_F the product of the free variables.  The value and
    `refuted_k` are those of the full pair; `refuted_by` names what refuted
    the restricted k.
    """
    igens, jgens = Q.I.gen_masks(), Q.J.gen_masks()
    support = 0
    for g in igens + jgens:
        support |= g
    free = ((1 << Q.ambient) - 1) & ~support
    f = free.bit_count()
    if not support:  # I = (1), J = 0: S itself is the Stanley space 1·K[x_1..x_n]
        whole = Partition((Interval(Monomial(0), Monomial(free)),))
        return SdepthResult(f, whole, refuted_k=None, refuted_by=None, free=f)
    R = Q
    if f:
        m = Q.ambient - f
        R = QuotientPair(
            Ideal._of_masks(m, [_squeeze(g, support) for g in igens]),
            Ideal._of_masks(m, [_squeeze(g, support) for g in jgens]),
            Q.field,
        )
    value, best, refuted_by = _search(R, hdepth1_pair(Q).value - f)
    if f:
        # relabelling keeps the canonical order, so the lows stay sorted
        best = Partition(tuple(
            Interval(Monomial(_spread(iv.lo.mask, support)),
                     Monomial(_spread(iv.hi.mask, support) | free))
            for iv in best.intervals
        ))
    refuted_k = None if refuted_by is None else value + f + 1
    return SdepthResult(value + f, best, refuted_k, refuted_by, free=f)


def _search(Q: QuotientPair, ceiling: int) -> tuple[int, Partition, str | None]:
    """sdepth of Q by deciding k = d+1 .. ceiling (≥ sdepth) in turn.

    Returns the value, its certificate, and the refuter of value + 1
    (None when value is the ambient count).
    """
    d = poset_view(Q).d
    best = sdepth_decide(Q, d)
    assert best is not None  # k = d has no lows; always satisfiable
    for k in range(d + 1, ceiling + 1):
        cert = sdepth_decide(Q, k)
        if cert is None:
            return k - 1, best, "search"
        best = cert
    if ceiling == Q.ambient:
        return ceiling, best, None
    return ceiling, best, "hdepth1"


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


def brute_force_sdepth(Q: QuotientPair, limit: int = 14) -> int:
    """Independent oracle: exhaustive search over all interval partitions.

    Exponential; guarded by `limit` on the poset size.
    """
    elements = poset_view(Q).elements
    if len(elements) > limit:
        raise InputError(f"poset size {len(elements)} exceeds oracle limit {limit}")
    idx = {m: i for i, m in enumerate(elements)}
    full = (1 << len(elements)) - 1

    # all intervals [u, v], u | v, with their element-index bitmasks
    by_elem: list[list[tuple[int, int]]] = [[] for _ in elements]
    for i, u in enumerate(elements):
        for v in elements:
            if u & ~v == 0:
                bits = 0
                for m in Interval(Monomial(u), Monomial(v)).member_masks():
                    j = idx.get(m)
                    if j is not None:
                        bits |= 1 << j
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

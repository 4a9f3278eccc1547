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
"""
from __future__ import annotations

from dataclasses import dataclass

from .monomials import InputError, Monomial, QuotientPair
from .poset import poset_view


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

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "certificate": self.certificate.to_json(),
            "refuted_k": self.refuted_k,
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
    span = hi & ~lo
    bits = 0
    g = span
    while True:
        bits |= 1 << (lo | g)
        if g == 0:
            break
        g = (g - 1) & span
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
    # per low: admissible tops in canonical order
    tops_of = {u: [v for v in tops if u & ~v == 0] for u in lows}
    if any(not ts for ts in tops_of.values()):
        return None
    # capacity of a top = k - (least degree of a poset element dividing it);
    # canonical order is degree-major, so the first divisor found is least
    cap = {
        v: k - next(m for m in elements if m & ~v == 0).bit_count() for v in tops
    }
    mid_lows = view.layer(k - 1)

    chosen: list[tuple[int, int]] = []
    covered = 0

    def _feasible() -> bool:
        for u in lows:
            if (covered >> u) & 1:
                continue
            if all((covered >> v) & 1 for v in tops_of[u]):
                return False
        # capacity-respecting matching for the one-below-top layer
        free = [u for u in mid_lows if not (covered >> u) & 1]
        if not free:
            return True
        used: dict[int, int] = {}
        owner: dict[int, list[int]] = {}

        def try_assign(u: int, seen: set[int]) -> bool:
            for v in tops_of[u]:
                if (covered >> v) & 1 or v in seen:
                    continue
                seen.add(v)
                if used.get(v, 0) < cap[v]:
                    used[v] = used.get(v, 0) + 1
                    owner.setdefault(v, []).append(u)
                    return True
                for w in owner.get(v, []):
                    if try_assign(w, seen):
                        owner[v].remove(w)
                        owner[v].append(u)
                        return True
            return False

        return all(try_assign(u, set()) for u in free)

    def _bt() -> bool:
        nonlocal covered
        u = next((m for m in lows if not (covered >> m) & 1), None)
        if u is None:
            return True
        for v in tops_of[u]:
            if (covered >> v) & 1:
                continue
            ibits = _interval_bits(u, v)
            if ibits & covered:
                continue
            covered |= ibits
            chosen.append((u, v))
            if _feasible() and _bt():
                return True
            chosen.pop()
            covered &= ~ibits
        return False

    if not _bt():
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
    view = poset_view(Q)
    d = view.d
    maxdeg = view.elements[-1].bit_count()
    best = sdepth_decide(Q, d)
    assert best is not None  # k = d has no lows; always satisfiable
    value = d
    for k in range(d + 1, maxdeg + 1):
        cert = sdepth_decide(Q, k)
        if cert is None:
            return SdepthResult(value=value, certificate=best, refuted_k=k)
        best = cert
        value = k
    refuted = None
    if value < Q.ambient:
        assert sdepth_decide(Q, value + 1) is None  # no tops above maxdeg
        refuted = value + 1
    return SdepthResult(value=value, certificate=best, refuted_k=refuted)


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
